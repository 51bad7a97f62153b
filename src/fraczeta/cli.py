"""Command-line surface for the package.

One executable, one subcommand per capability.  JSON and CSV artifacts carry
the run manifest: a JSON one in the ``{"manifest", "result"}`` envelope,
which only ``_emit_json`` builds, a CSV as its leading ``# manifest:`` line,
which only ``_write`` writes; text tables do not.  Numeric payloads are
locale-independent and byte-identical across reruns with the same
parameters (timestamps live only in the manifest).

Exit codes: 0 success, 2 usage (argparse), 3 input error, 4 capacity
error, 5 domain error, 6 parse error, 1 unexpected failure, or a reader
that closed stdout before the output ended (``| head``), which exits
with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import __version__
from .errors import FraczetaError, InputError, usage_text
from .grids import (
    GeneralIfsSpec,
    GridSpec,
    IfsMap,
    build_stage,
    ifs_of_grid,
    make_named_spec,
    make_zf_spec,
    row_blocks,
    stage_header,
    write_stage_csv,
)
from .limits import (
    DEFAULT_BOUNDARY_TOL,
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_PRECISION_DIGITS,
    MAX_Q_POINTS,
    MIN_DIGITIZE_DPS,
    check_precision,
    check_work,
    fraction_from_text,
)

# Modules that only some commands use (cardinality, dimension, montecarlo,
# zeros, zeta, and mpmath with them) are imported inside those commands,
# so a command loads only what it runs.


def _manifest(args, digits: int, **extra) -> dict:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in {"func", "command", "out"} and v is not None
    }
    params.update(extra)
    # JSON output is strict, so a non-finite float flag is an input error
    # even where the command does not use it
    for k, v in params.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise InputError("--{flag}: expected a finite number, got {value}", flag=k.replace("_", "-"), value=v)
    return {
        "command": args.command,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "precision_digits": digits,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }


def _write(path: str | None, flag: str, write, manifest: dict | None = None) -> None:
    """Call ``write`` on the file at ``path``, given by ``flag``, or on stdout when no path is given.

    Every artifact goes through here once its run has passed every check, so a refused run opens no
    file.  A given ``manifest`` comes first, as a CSV's ``# manifest: <JSON>`` line.  A path that
    cannot be written is an input error naming the flag.
    """
    head = "" if manifest is None else f"# manifest: {json.dumps(manifest, allow_nan=False)}\n"
    if not path:
        sys.stdout.write(head)
        return write(sys.stdout)
    try:
        with open(path, "w") as fp:
            fp.write(head)
            write(fp)
    except OSError as exc:
        raise InputError("{flag}: cannot write {path}: {exc}", flag=flag, path=Path(path), exc=exc) from exc


def _write_lines(path: str | None, flag: str, lines, manifest: dict | None = None) -> None:
    """Write ``lines``, each ended by a newline, after the manifest line when ``manifest`` is given."""
    _write(path, flag, lambda fp: fp.writelines(f"{line}\n" for line in lines), manifest)


# One ["p/q", "r/s"] pair as json.dumps(indent=2) lays it out in a list three levels into the envelope.
_JSON_INTERVAL = ',\n      [\n        "%d/%d",\n        "%d/%d"\n      ]'


def _emit_json(args, manifest: dict, result, blocks=None) -> None:
    """Write ``{"manifest": manifest, "result": result}`` as ``json.dumps(..., indent=2)`` does, plus a newline.

    ``blocks``, an iterator of at least one ``(p, q, r, s)`` tuple of integer columns, fills the empty list that
    ends ``result`` with ``["p/q", "r/s"]`` pairs, straight from the integers, each block by one ``%``.
    """
    text = json.dumps({"manifest": manifest, "result": result}, indent=2, allow_nan=False)
    if blocks is None:
        return _write(args.out, "--out", lambda fp: fp.write(text + "\n"))
    # the list is the last value, so its "[]" is the last one of the text
    head, tail = text.rsplit("[]", 1)

    def write(fp):
        texts = ((_JSON_INTERVAL * len(columns[0])) % tuple(chain.from_iterable(zip(*columns))) for columns in blocks)
        fp.write(head + "[" + next(texts)[1:])  # the first pair takes no comma
        fp.writelines(texts)
        fp.write(f"\n    ]{tail}\n")

    _write(args.out, "--out", write)


def _mpf_str(value, digits: int) -> str:
    import mpmath as mp

    # conversion must run at full precision; mp.mpf rounds to the context
    with mp.workdps(max(digits, mp.mp.dps)):
        return mp.nstr(mp.mpf(value), digits)


def _zeta_str(value, zv, digits: int) -> str:
    """``value``, derived from the evaluation ``zv``, to the ``digits`` asked
    for, or to fewer when the truncation bound certifies fewer."""
    import mpmath as mp

    shown = min(digits, zv.certified_digits)
    if shown < 1:
        raise InputError(
            "N = {n}, K = {k} certify no digit of zeta({s}) (error bound {bound}); raise --terms or lower --k",
            n=zv.terms_N, k=zv.correction_K, s=zv.s, bound=mp.nstr(zv.error_bound, 3),
        )
    return _mpf_str(value, shown)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_list(text: str, flag: str, conv) -> list:
    """Comma-separated values of ``flag`` through ``conv``; empty items are skipped."""
    try:
        return [conv(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("{flag}: cannot parse {text!r}", flag=flag, text=text) from exc


def _text_table(rows) -> list[str]:
    """Left-aligned columns two spaces apart, a dashed rule under the header row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def _add_set_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", nargs="?", help="built-in set name (pess, cantor13, classic-cantor, mod6, mod8)")
    parser.add_argument("--zeros", metavar="FILE", help="zero-ordinate file driving a zf construction")
    parser.add_argument("--modq", type=int, metavar="Q", help="base of a custom residue grid")
    parser.add_argument("--keep", metavar="LIST", help="comma-separated residues kept by --modq")
    parser.add_argument("--order", choices=["standard", "random"], default="standard", help="zero ordering before digitization")
    parser.add_argument("--seed", type=int, help="seed for --order random")
    parser.add_argument("--tol", type=float, default=DEFAULT_BOUNDARY_TOL, help="digit boundary tolerance")


def _spec_from_args(args, digits: int) -> GridSpec:
    chosen = [bool(args.name), bool(args.zeros), args.modq is not None]
    if sum(chosen) != 1:
        raise InputError("choose exactly one of: a set name, --zeros FILE, or --modq/--keep")
    if not args.zeros:
        # a flag left at its default cannot be told from an absent one
        for flag, given in (("--order", args.order != "standard"), ("--seed", args.seed is not None),
                            ("--tol", args.tol != DEFAULT_BOUNDARY_TOL)):
            if given:
                raise InputError("{flag} needs --zeros; a set name or --modq ignores it", flag=flag)
    if args.seed is not None and args.order != "random":
        raise InputError("--seed needs --order random; no other ordering reads it")
    if args.name:
        return make_named_spec(args.name)
    if args.zeros:
        from .zeros import digitize, parse_zero_file, reorder

        table = reorder(parse_zero_file(args.zeros), args.order, args.seed)
        return make_zf_spec(digitize(table, digits, args.tol))
    if args.keep is None:
        raise InputError("--modq requires --keep with the residues to retain")
    keep = _parse_list(args.keep, "--keep", int)
    return GridSpec(base=args.modq, label=f"mod{args.modq}", constant=tuple(keep))


def cmd_construct(args, digits: int) -> None:
    if args.cap < 0:
        raise InputError("--cap must be >= 0, got {cap}", cap=args.cap)
    spec = _spec_from_args(args, digits)
    stage = build_stage(spec, args.depth)
    # both writers stream without a cap, so they rely on this
    stage.check_cap(args.cap)
    manifest = _manifest(args, digits, label=spec.label)
    if args.format == "json":
        _emit_json(args, manifest, {**stage_header(stage), "intervals": []}, (b[1:] for b in row_blocks(stage)))
    else:
        _write(args.out, "--out", lambda fp: write_stage_csv(stage, fp), manifest)


def _deepest_default_depth(base: int) -> int:
    """The largest k for which 1/eps = base**k converts to a finite double."""
    k = math.ceil(1024 / math.log2(base))  # base**k >= 2**1024, up to the rounding of log2
    while True:
        try:
            float(base**k)
            return k
        except OverflowError:
            k -= 1


def cmd_dimension(args, digits: int) -> None:
    from .dimension import box_dimension_fit, fit_point_rows, similarity_dimension

    if args.method == "similarity":
        for flag, value in (("--scales", args.scales), ("--points-csv", args.points_csv)):
            if value is not None:
                raise InputError("{flag} needs --method boxcount; the similarity method ignores it", flag=flag)
    spec = _spec_from_args(args, digits)
    manifest = _manifest(args, digits, label=spec.label)
    if args.method == "similarity":
        est = similarity_dimension(ifs_of_grid(spec).ratios)
        result = {
            "method": est.method,
            "label": spec.label,
            "value": est.value,
            "residual": est.residual,
        }
    else:
        stage = build_stage(spec, args.depth)
        if args.scales:
            est = box_dimension_fit(stage, _parse_list(args.scales, "--scales", fraction_from_text))
        else:
            b = spec.base
            try:
                est = box_dimension_fit(stage, [Fraction(1, b**k) for k in range(1, args.depth + 1)])
            except InputError as exc:
                note = "{error}; without --scales the fit uses {b}^-1..{b}^-depth, which needs 3 <= --depth <= {top}"
                raise InputError(note, error=exc, b=b, top=_deepest_default_depth(b)) from exc
        if args.points_csv:
            _write_lines(args.points_csv, "--points-csv", fit_point_rows(est), manifest)
        result = {
            "method": est.method,
            "label": spec.label,
            "depth": args.depth,
            "value": est.value,
            "r_squared": est.residual,
            "sample_points": [
                {"epsilon": str(eps), "count": count}
                for eps, count in est.sample_points
            ],
        }
    _emit_json(args, manifest, result)


def _zeta_json(zv, digits: int) -> dict:
    return {
        "s": str(zv.s),
        "value": _zeta_str(zv.value, zv, digits),
        "terms_N": zv.terms_N,
        "correction_K": zv.correction_K,
        "error_bound": _mpf_str(zv.error_bound, 10),
    }


def cmd_zeta(args, digits: int) -> None:
    from .zeta import zeta_euler_maclaurin

    zv = zeta_euler_maclaurin(args.s, args.terms, args.k, digits)
    manifest = _manifest(args, digits, terms=zv.terms_N, k=zv.correction_K)
    result = {**_zeta_json(zv, digits), "precision_digits": zv.precision_digits}
    _emit_json(args, manifest, result)


def _load_table(args):
    from .zeros import parse_zero_file, reorder, reorder_external_weights

    for flag, given, mode in (("--seed", args.seed, "random"), ("--weights", args.weights, "external")):
        if given is not None and args.mode != mode:
            raise InputError("{flag} needs --mode {mode}; no other mode reads it", flag=flag, mode=mode)
    table = parse_zero_file(args.file)
    if args.mode == "external":
        if not args.weights:
            raise InputError("--mode external requires --weights FILE")
        table = reorder_external_weights(table, args.weights)
    elif args.mode != "as-is":
        table = reorder(table, args.mode, args.seed)
    return table


def cmd_zeros_digitize(args, digits: int) -> None:
    from .zeros import digitize

    table = _load_table(args)
    seq = digitize(table, digits, args.tol)
    manifest = _manifest(args, digits, ordering=table.ordering)
    if args.format == "json":
        result = {
            "precision_digits": seq.precision_digits,
            "boundary_tol": seq.boundary_tol,
            "ordering": table.ordering,
            "entries": [
                {
                    "n": e.n,
                    "gamma": e.gamma,
                    "t": _mpf_str(e.t, seq.precision_digits),
                    "a": e.a,
                    "boundary_flag": e.boundary_flag,
                }
                for e in seq
            ],
        }
        _emit_json(args, manifest, result)
    else:
        rows = (
            f"{e.n},{e.gamma},{_mpf_str(e.t, seq.precision_digits)},{e.a},{str(e.boundary_flag).lower()}"
            for e in seq
        )
        _write_lines(args.out, "--out", ["n,gamma,t,a,boundary_flag", *rows], manifest)


def cmd_zeros_stats(args, digits: int) -> None:
    from .zeros import digit_stats, digitize

    table = _load_table(args)
    seq = digitize(table, digits, args.tol)
    stats = digit_stats(seq)
    manifest = _manifest(args, digits, ordering=table.ordering)
    result = {
        "length": len(seq),
        **asdict(stats),
        "boundary_flags": sum(1 for e in seq if e.boundary_flag),
    }
    _emit_json(args, manifest, result)


def cmd_zeros_reorder(args, digits: int) -> None:
    table = _load_table(args)
    manifest = _manifest(args, digits, ordering=table.ordering)
    _write_lines(args.out, "--out", table.gamma_strings, manifest)


def cmd_compare(args, digits: int) -> None:
    from .cardinality import catalog_map, compare_extended, compare_trace

    entries = catalog_map(precision_digits=digits)
    missing = [n for n in (args.a, args.b) if n not in entries]
    if missing:
        raise InputError(
            "unknown catalog name(s) {missing}; valid: {names}", missing=missing, names=", ".join(sorted(entries))
        )
    a = entries[args.a].cardinality
    b = entries[args.b].cardinality
    manifest = _manifest(args, digits)
    if args.extended:
        result = {"mode": "extended", "result": compare_extended(a, b)}
    else:
        rel, trace = compare_trace(a, b)
        result = {"mode": "lexicographic", "result": rel, "trace": trace}
    _emit_json(args, manifest, result)


def _catalog_rows(digits: int):
    from .cardinality import catalog

    rows = []
    for e in catalog(precision_digits=digits):
        c = e.cardinality
        rows.append(
            {
                "name": e.name,
                "alpha": c.alpha,
                "delta": c.delta,
                "delta_exact": str(c.delta_exact) if c.delta_exact is not None else None,
                "iota": (
                    _mpf_str(c.iota, digits) if e.zeta is None
                    else _zeta_str(c.iota, e.zeta, digits)
                ),
                "dim_vector": list(c.dim_vector) if c.dim_vector else None,
                "provenance": dict(c.provenance),
                "notes": e.notes,
            }
        )
    return rows


def cmd_catalog(args, digits: int) -> None:
    import mpmath as mp

    rows = _catalog_rows(digits)
    manifest = _manifest(args, digits)
    if args.format == "json":
        _emit_json(args, manifest, rows)
        return
    table_rows = [["Set", "alpha", "delta", "iota", "I(M)"]]
    for r in rows:
        delta_txt = f"{r['delta']:.6g}"
        if r["delta_exact"] and "/" in r["delta_exact"] and "log" in r["delta_exact"]:
            delta_txt += f" ({r['delta_exact']})"
        iota_short = mp.nstr(mp.mpf(r["iota"]), 8)
        table_rows.append(
            [r["name"], str(r["alpha"]), delta_txt, iota_short, f"({r['alpha']}, {r['delta']:.6g}, {iota_short})"]
        )
    _write_lines(args.out, "--out", _text_table(table_rows))


def _pair_table(report) -> list[str]:
    """Side-by-side property table for the two signed constructions."""
    import mpmath as mp

    shown = min(10, report.zeta.certified_digits)
    iota_p = mp.nstr(report.iota_pess, shown)
    iota_z = mp.nstr(report.iota_zf, shown)
    rows = [
        ("Property", "pess", "zf"),
        ("hausdorff dimension", "1/2", "1/2"),
        ("cardinality", "uncountable", "uncountable"),
        ("lebesgue measure", "0", "0"),
        ("self-similar", "yes (fixed rule)", "yes (data-driven)"),
        ("information measure", f"{iota_p} (> 0)", f"{iota_z} (< 0)"),
        ("arithmetic origin", "residues 1,3 mod 4", "zero ordinates mod 2pi"),
    ]
    return [
        *_text_table(rows),
        "",
        f"sum of information measures: {mp.nstr(report.total, min(5, shown))}",
        f"caveat: {report.caveat}",
    ]


def cmd_conservation(args, digits: int) -> None:
    from .cardinality import conservation_report
    from .zeros import digitize, parse_zero_file

    seq = digitize(parse_zero_file(args.zeros), digits) if args.zeros else None
    report = conservation_report(precision_digits=digits, zero_digits=seq)
    manifest = _manifest(args, digits)
    if args.format == "table":
        _write_lines(args.out, "--out", _pair_table(report))
        return
    result = {
        "iota_pess": _zeta_str(report.iota_pess, report.zeta, digits),
        "iota_zf": _zeta_str(report.iota_zf, report.zeta, digits),
        "sum": _zeta_str(report.total, report.zeta, digits),
        "sum_is_exact_zero": report.total == 0,
        "caveat": report.caveat,
        "zeta": _zeta_json(report.zeta, digits),
    }
    if report.digit_stats is not None:
        result["digit_stats"] = asdict(report.digit_stats)
    _emit_json(args, manifest, result)


def cmd_axioms(args, digits: int) -> None:
    from .cardinality import axiom_suite

    checks = axiom_suite(precision_digits=digits)
    manifest = _manifest(args, digits)
    _emit_json(args, manifest, [asdict(c) for c in checks])


def cmd_perturb(args, digits: int) -> None:
    from .montecarlo import RetentionConfig, run_trials

    if (args.p is None) == (args.bias is None):
        raise InputError("give exactly one of --p or --bias p1,p3")
    if args.p is not None:
        probs = (args.p, args.p)
    else:
        parts = _parse_list(args.bias, "--bias", _finite_float)
        if len(parts) != 2:
            raise InputError("--bias needs two probabilities, got {bias!r}", bias=args.bias)
        probs = (parts[0], parts[1])
    config = RetentionConfig(
        probs=probs, depth=args.depth, trials=args.trials, seed=args.seed, base=args.base
    )
    run = run_trials(config)
    manifest = _manifest(args, digits)
    result = {
        "p": args.p if args.p is not None else list(probs),
        "depth": run.config.depth,
        "trials": run.config.trials,
        "seed": run.config.seed,
        "base": run.config.base,
        **asdict(run.aggregate),
    }
    if args.per_trial:
        rows = (
            f"{i},{o.survivor_counts[-1]},{str(o.extinct).lower()},"
            f"{'' if o.dim_estimate is None else repr(o.dim_estimate)}"
            for i, o in enumerate(run.outcomes)
        )
        _write_lines(args.per_trial, "--per-trial", ["trial,final_count,extinct,dim_estimate", *rows], manifest)
    _emit_json(args, manifest, result)


def _parse_q_grid(args) -> list[float]:
    if q := _parse_list(args.q or "", "--q", _finite_float):
        return q
    if not args.q_range:
        raise InputError("give --q LIST or --q-range START:STOP:STEP")
    parts = args.q_range.split(":")
    if len(parts) != 3:
        raise InputError("--q-range must be START:STOP:STEP, got {q_range!r}", q_range=args.q_range)
    try:
        start, stop, step = (fraction_from_text(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("--q-range: cannot parse {q_range!r}", q_range=args.q_range) from exc
    if step <= 0 or stop < start:
        raise InputError("--q-range needs step > 0 and stop >= start")
    if max(abs(start), abs(stop)) > sys.float_info.max:
        raise InputError("--q-range bounds must lie within the double range")
    count = (stop - start) // step + 1
    check_work(count, MAX_Q_POINTS, "--q-range has {amount} points")
    return [float(start + i * step) for i in range(count)]


def cmd_multifractal(args, digits: int) -> None:
    from .dimension import multifractal_spectrum

    ratios = _parse_list(args.ratios, "--ratios", fraction_from_text)
    weights = _parse_list(args.weights, "--weights", fraction_from_text)
    if len(ratios) != len(weights):
        raise InputError("--ratios and --weights must have the same length")
    offsets = [Fraction(0)] * len(ratios)  # offsets do not enter the spectrum
    ifs = GeneralIfsSpec(
        maps=tuple(
            IfsMap(ratio=r, offset=o, weight=w)
            for r, o, w in zip(ratios, offsets, weights)
        ),
        label="cli-ifs",
    )
    points = multifractal_spectrum(ifs, _parse_q_grid(args))
    manifest = _manifest(args, digits)
    _emit_json(args, manifest, [asdict(p) for p in points])


class _Parser(argparse.ArgumentParser):
    """An argument parser, each subcommand's too, whose usage errors show their message by ``errors.usage_text``."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # what a usage error may echo: an argument, the value after an option's "=", the unrecognized ones joined
        self.echoed = [*args, *(arg.partition("=")[2] for arg in args)]
        namespace, extras = super().parse_known_args(args, namespace)
        self.echoed.append(" ".join(extras))
        return namespace, extras

    def error(self, message):
        super().error(usage_text(message, getattr(self, "echoed", ())))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fraczeta",
        description="Exact digit-grid fractals, dimensions, zeta values, and "
        "zero digitization",
    )
    parser.add_argument("--version", action="version", version=f"fraczeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, command, func, help_text):
        p = group.add_parser(command.split()[-1], help=help_text)
        p.set_defaults(func=func, command=command)
        p.add_argument("--digits", type=int, default=None, help="working decimal precision")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        return p

    p = add(sub, "construct", cmd_construct, "export the exact intervals of a stage")
    _add_set_flags(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p = add(sub, "dimension", cmd_dimension, "similarity or box-counting dimension")
    _add_set_flags(p)
    p.add_argument("--method", choices=["similarity", "boxcount"], default="similarity")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--scales", help="comma-separated epsilon fractions for boxcount")
    p.add_argument("--points-csv", metavar="FILE", help="also write plot-ready regression points here")

    p = add(sub, "zeta", cmd_zeta, "Euler-Maclaurin zeta value at a real argument")
    p.add_argument("--s", required=True, help="argument, e.g. 0.5 or 2/3")
    p.add_argument(
        "--terms", type=int,
        help="partial-sum cutoff N (default: automatic, the smallest N that certifies every digit)",
    )
    p.add_argument(
        "--k", type=int,
        help="Bernoulli correction terms K, at most 354 (default: automatic, 30 up to 75 digits, "
        "then 0.35 (digits + 10) rounded up)",
    )

    zeros = sub.add_parser("zeros", help="zero-file operations")
    zsub = zeros.add_subparsers(dest="zeros_command", required=True)

    def add_z(name, func, help_text):
        p = add(zsub, f"zeros {name}", func, help_text)
        p.add_argument("--file", required=True)
        p.add_argument("--tol", type=float, default=DEFAULT_BOUNDARY_TOL)
        p.add_argument(
            "--mode",
            choices=["as-is", "standard", "random", "external"],
            default="as-is",
            help="reorder before use",
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--weights", metavar="FILE", help="sidecar (index, weight) file")
        return p

    p = add_z("digitize", cmd_zeros_digitize, "emit (n, gamma, t, a, boundary) rows")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_z("stats", cmd_zeros_stats, "digit-uniformity chi-square report")
    add_z("reorder", cmd_zeros_reorder, "write the reordered ordinate list")

    p = add(sub, "compare", cmd_compare, "compare two catalog entries")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--extended", action="store_true", help="componentwise dimension vectors")

    p = add(sub, "catalog", cmd_catalog, "the built-in comparison table")
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add(sub, "conservation", cmd_conservation, "signed zeta(1/2) pair and its exact sum")
    p.add_argument("--zeros", metavar="FILE", help="attach digit statistics from this file")
    p.add_argument("--format", choices=["json", "table"], default="json")

    add(sub, "axioms", cmd_axioms, "assertable axiom checks")

    p = add(sub, "perturb", cmd_perturb, "probabilistic-retention Monte Carlo")
    p.add_argument("--p", type=float)
    p.add_argument("--bias", help="p1,p3 pair")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--base", type=int, default=4)
    p.add_argument("--per-trial", metavar="FILE", help="also write per-trial CSV here")

    p = add(sub, "multifractal", cmd_multifractal, "tau/alpha/f spectrum of a weighted IFS")
    p.add_argument("--ratios", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--q", help="comma-separated q values")
    p.add_argument("--q-range", help="START:STOP:STEP inclusive")

    return parser


def _precision(args) -> int:
    """The working precision of the run, as its manifest records it.

    ``--digits``, else ``FRACZETA_PRECISION``, else the default.  Every
    command refuses it through ``limits.check_precision``, below the minimum
    (exit 3) or above the cap (exit 4), whether or not the command uses it;
    a run that digitizes zero ordinates is then raised to the digitizer's
    minimum.
    """
    digits = args.digits
    if digits is None:
        raw = os.environ.get("FRACZETA_PRECISION", str(DEFAULT_PRECISION_DIGITS))
        try:
            digits = int(raw)
        except ValueError as exc:
            raise InputError("FRACZETA_PRECISION must be an integer, got {raw!r}", raw=raw) from exc
    check_precision(digits)
    if args.func in (cmd_zeros_digitize, cmd_zeros_stats) or getattr(args, "zeros", None):
        return max(digits, MIN_DIGITIZE_DPS)
    return digits


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, _precision(args))
    except FraczetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
