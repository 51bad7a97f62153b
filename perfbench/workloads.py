"""The four workloads, each a fixed cycle of ops built from seeded inputs.

An op is one call bundle into fraczeta (or one cold CLI process in
``cli-cold``) with the oracle that checks its output.  A run repeats the
cycle, one op at a time (a closed loop with a single caller), so every
run measures the same mix of ops whatever its length.

- ``boxcount``: ``box_dimension_fit`` over aligned and non-aligned scales
  on built-in, random ``--modq/--keep`` and ``zf`` grids whose stages hold
  1024 intervals, and ``self_similarity_check`` on six of them.
- ``export``: ``cli.main(["construct", ...])`` writing CSV and JSON for the
  same kinds of grids, at 6561 to 16384 intervals under ``--cap 16384``.
- ``analytic``: zeta at stratified ``s`` and 30/50/100 digits, the
  functional-equation residual, Gamma, the cardinality reports,
  digitize + digit stats of 3000 ordinates, a multifractal spectrum and
  Monte Carlo trials.
- ``cli-cold``: the README quick tour, each command a fresh
  ``python -m fraczeta.cli`` process.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles
import seeded
from oracles import ColdOracle, ColdOutput, ExportCheck, GridOracle

BUILTINS = ("pess", "cantor13", "classic-cantor", "mod6", "mod8")
# (keep size, q) of the random --modq grids
BOX_MODQ = ((2, 7), (2, 11), (4, 6), (4, 10))
EXPORT_MODQ = ((2, 6), (3, 7), (4, 9), (5, 10))
BOX_SCALES = 14
BOX_SELFSIM_DEEPER = 2
ZF_GRIDS = 2
BOX_MAX_INTERVALS = 1024
EXPORT_CAP = 2**14
DIGITS = (30, 50, 100)
TRACECLI = Path(__file__).with_name("tracecli.py")


def _identity(raw):
    return raw


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    keep: Callable[[object], object] = _identity  # what the oracle reads of an output, made outside the timer
    finish: Callable[[], list[str]] | None = None  # checks deferred until peak memory is read
    traced_run: Callable[[], object] | None = None  # cold commands: the same run under the span bootstrap
    spans_file: Path | None = None


@dataclass
class Context:
    fz: object  # the fraczeta package; ops look functions up on it at call time
    rng: object
    work: Path
    env: dict


@dataclass
class GridCase:
    flags: list[str]  # construct/dimension flags choosing the set
    spec: object
    depth: int
    oracle: GridOracle


def _call(fz, name, *args, **kwargs):
    return getattr(fz, name)(*args, **kwargs)


def grid_cases(ctx: Context, max_intervals: int, modq_strata) -> list[GridCase]:
    """Built-ins, one random modq grid per stratum, and zf grids, all at the
    deepest stage holding at most ``max_intervals`` intervals."""
    fz, rng = ctx.fz, ctx.rng
    cases = []
    for name in BUILTINS:
        spec = fz.make_named_spec(name)
        depth = seeded.depth_for(len(spec.constant), max_intervals)
        cases.append(GridCase([name], spec, depth, GridOracle.from_spec(spec, depth)))
    for q, keep, depth in seeded.modq_specs(rng, modq_strata, max_intervals):
        spec = fz.GridSpec(base=q, label=f"mod{q}", constant=keep)
        flags = ["--modq", str(q), "--keep", ",".join(map(str, keep))]
        cases.append(GridCase(flags, spec, depth, GridOracle.from_spec(spec, depth)))
    depth = seeded.depth_for(2, max_intervals)
    for i in range(ZF_GRIDS):
        ordinates = seeded.ordinate_strings(rng, depth + 2)
        path = seeded.write_zero_file(ctx.work / f"zf{i}.txt", ordinates)
        spec = fz.make_zf_spec(fz.digitize(fz.parse_zero_file(path), 50), label=f"zf{i}")
        oracle = GridOracle(4, oracles.zf_levels(ordinates, depth))
        cases.append(GridCase(["--zeros", str(path)], spec, depth, oracle))
    return cases


# ---------------------------------------------------------------- boxcount


def _fit(fz, spec, depth, scales):
    return fz.box_dimension_fit(fz.build_stage(spec, depth), scales)


def boxcount(ctx: Context) -> list[Op]:
    """Every stage holds 1024 intervals and every fit uses BOX_SCALES scales
    (the aligned ones, topped up with non-aligned ones), so the 11 fits cost
    about the same.  ``self_similarity_check`` runs on the six grids that
    keep two residues: three at the fit depth, which cost less than a fit,
    and three BOX_SELFSIM_DEEPER levels deeper, which cost more.  Both p50
    and p90 of the 17-op cycle then fall inside one op's block of samples
    (p50 mid-way through the fits), not on a boundary between op costs."""
    ops = []
    selfsim = 0
    for case in grid_cases(ctx, BOX_MAX_INTERVALS, BOX_MODQ):
        base = case.spec.base
        scales = (seeded.aligned_scales(base, case.depth)
                  + seeded.nonaligned_scales(ctx.rng, base, case.depth, BOX_SCALES - case.depth))
        ops.append(Op("fit", partial(_fit, ctx.fz, case.spec, case.depth, scales),
                      partial(case.oracle.check_fit, scales=scales)))
        if case.spec.is_constant and len(case.spec.constant) == 2:
            depth = case.depth + (BOX_SELFSIM_DEEPER if selfsim >= 3 else 0)
            selfsim += 1
            ops.append(Op("selfsim", partial(_call, ctx.fz, "self_similarity_check", case.spec, depth),
                          GridOracle.from_spec(case.spec, depth).check_selfsim))
    return ops


# ---------------------------------------------------------------- export


def export(ctx: Context) -> list[Op]:
    ops = []
    for i, case in enumerate(grid_cases(ctx, EXPORT_CAP, EXPORT_MODQ)):
        for fmt in ("csv", "json"):
            path = ctx.work / f"export{i}.{fmt}"
            argv = ["construct", *case.flags, "--depth", str(case.depth), "--format", fmt,
                    "--cap", str(EXPORT_CAP), "--out", str(path)]
            check = ExportCheck(case.oracle, path, fmt)
            ops.append(Op(f"export-{fmt}", partial(_call, ctx.fz.cli, "main", argv), check,
                          keep=check.keep, finish=check.finish))
    return ops


# ---------------------------------------------------------------- analytic


def _compare(fz, a, b):
    entries = {e.name: e for e in fz.catalog()}
    return fz.compare(entries[a].cardinality, entries[b].cardinality)


def _zeros(fz, path):
    seq = fz.digitize(fz.parse_zero_file(path), 50)
    return seq, fz.digit_stats(seq)


def _check_zeros(out, ordinates):
    seq, stats = out
    return oracles.check_digitize(seq, ordinates, 50) or oracles.check_stats(stats, seq.digits())


def analytic(ctx: Context) -> list[Op]:
    fz, rng = ctx.fz, ctx.rng
    ops = []
    for lo, hi in seeded.ZETA_S_STRATA:
        for digits in DIGITS:
            s = seeded.rational_in(rng, lo, hi)
            ops.append(Op("zeta", partial(_call, fz, "zeta_euler_maclaurin", s, precision_digits=digits),
                          partial(oracles.check_zeta, s=s, digits=digits)))
    half = Fraction(1, 2)
    for (lo, hi), digits in zip(((Fraction(1, 20), half), (half, Fraction(19, 20))), (30, 50)):
        s = seeded.rational_in(rng, lo, hi)
        ops.append(Op("fe", partial(_call, fz, "functional_equation_residual", s, precision_digits=digits),
                      partial(oracles.check_fe, digits=digits)))
    # four Gamma points make the cycle 25 ops long: p50 and p90 then fall
    # mid-way through one op's samples
    for (lo, hi), digits in zip(((Fraction(1, 20), 1), (1, 10), (10, 100), (100, 1000)), DIGITS + (50,)):
        x = seeded.rational_in(rng, Fraction(lo), Fraction(hi))
        ops.append(Op("gamma", partial(_call, fz, "gamma_real", x, digits),
                      partial(oracles.check_gamma, x=x, digits=digits)))

    a, b = rng.sample(list(oracles.CATALOG), 2)
    small = seeded.ordinate_strings(rng, 40)
    small_seq = fz.digitize(fz.parse_zero_file(seeded.write_zero_file(ctx.work / "small.txt", small)), 50)
    ops += [
        Op("catalog", partial(_call, fz, "catalog"), partial(oracles.check_catalog, digits=50)),
        Op("compare", partial(_compare, fz, a, b), partial(oracles.check_compare, a=a, b=b)),
        Op("conservation", partial(_call, fz, "conservation_report", zero_digits=small_seq),
           partial(oracles.check_conservation, digits=50, digit_seq=small_seq)),
        Op("axioms", partial(_call, fz, "axiom_suite"), oracles.check_axioms),
    ]

    ordinates = tuple(seeded.ordinate_strings(rng, 3000))
    path = seeded.write_zero_file(ctx.work / "zeros.txt", list(ordinates))
    ops.append(Op("zeros", partial(_zeros, fz, path), partial(_check_zeros, ordinates=ordinates)))

    ratios, weights = seeded.weighted_ifs(rng, 3)
    ifs = fz.GeneralIfsSpec(maps=tuple(fz.IfsMap(r, Fraction(0), w) for r, w in zip(ratios, weights)))
    q_grid = [k / 2 for k in range(-10, 11)]
    ops.append(Op("multifractal", partial(_call, fz, "multifractal_spectrum", ifs, q_grid),
                  partial(oracles.check_multifractal, ratios=ratios, weights=weights, q_grid=q_grid)))

    config = fz.RetentionConfig(probs=(round(rng.uniform(0.6, 0.95), 3), round(rng.uniform(0.6, 0.95), 3)),
                                depth=12, trials=500, seed=rng.randrange(2**32))
    ops.append(Op("trials", partial(_call, fz, "run_trials", config), oracles.TrialsOracle(config).check))
    return ops


# ---------------------------------------------------------------- cli-cold


def _spawn(cmd, ctx: Context):
    return subprocess.run(cmd, cwd=ctx.work, env=ctx.env, capture_output=True, timeout=120)


def _cold_keep(proc, ctx: Context, files) -> ColdOutput:
    nbytes = len(proc.stdout) + sum((ctx.work / f).stat().st_size for f in files)
    return ColdOutput(proc.returncode, proc.stdout, proc.stderr, nbytes)


def cli_cold(ctx: Context) -> list[Op]:
    rng = ctx.rng
    zeros = seeded.ordinate_strings(rng, 100)
    seeded.write_zero_file(ctx.work / "zeros.txt", zeros)
    s = seeded.rational_in(rng, Fraction(1, 20), Fraction(19, 20))
    reorder_seed, perturb_seed = rng.randrange(1000), rng.randrange(1000)
    tour = [
        (["construct", "pess", "--depth", "3", "--format", "csv"], "csv", lambda rows: len(rows) == 9),
        (["construct", "--zeros", "zeros.txt", "--depth", "5"], "json",
         lambda r: r["interval_count"] == 32),
        (["construct", "--modq", "6", "--keep", "1,5", "--depth", "2"], "json",
         lambda r: r["interval_count"] == 4),
        (["dimension", "pess", "--method", "similarity"], "json", lambda r: abs(r["value"] - 0.5) < 1e-12),
        (["dimension", "cantor13", "--method", "boxcount", "--depth", "10", "--points-csv", "points.csv"],
         "json", lambda r: [p["count"] for p in r["sample_points"]] == [2**k for k in range(1, 11)]),
        (["dimension", "--modq", "8", "--keep", "1,3,5,7", "--method", "similarity"], "json",
         lambda r: abs(r["value"] - 2 / 3) < 1e-12),
        (["zeta", "--s", str(s), "--terms", "10000", "--k", "10", "--digits", "50"], "json",
         partial(oracles.cold_zeta_ok, s=s, digits=50)),
        (["zeros", "digitize", "--file", "zeros.txt"], "csv",
         partial(oracles.cold_digits_ok, ordinates=tuple(zeros), dps=50)),
        (["zeros", "stats", "--file", "zeros.txt"], "json",
         lambda r: r["length"] == 100 and sum(r["counts"]) == 100),
        (["zeros", "reorder", "--file", "zeros.txt", "--mode", "random", "--seed", str(reorder_seed)],
         "csv", lambda rows: sorted(rows) == sorted(zeros)),
        (["compare", "--a", "pess", "--b", "cantor13"], "json", lambda r: r["result"] == "greater"),
        (["catalog", "--format", "table"], "table", lambda lines: any(x.startswith("pess ") for x in lines)),
        (["conservation", "--zeros", "zeros.txt"], "json",
         lambda r: r["sum_is_exact_zero"] and sum(r["digit_stats"]["counts"]) == 100),
        (["conservation", "--format", "table"], "table",
         lambda lines: "sum of information measures: 0.0" in lines),
        (["axioms"], "json", lambda r: [c["status"] for c in r] == oracles.AXIOM_STATUSES),
        (["perturb", "--p", "0.75", "--depth", "12", "--trials", "500", "--seed", str(perturb_seed)],
         "json", lambda r: r["trials"] == 500 and r["seed"] == perturb_seed),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=-5:5:0.5"], "json",
         lambda r: len(r) == 21 and r[12]["q"] == 1.0 and abs(r[12]["tau"]) < 1e-9),
    ]
    ops = []
    for i, (argv, kind, predicate) in enumerate(tour):
        files = ["points.csv"] if "--points-csv" in argv else []
        spans_file = ctx.work / f"spans{i}.json"
        ops.append(Op(
            f"cold{i}",
            partial(_spawn, [sys.executable, "-m", "fraczeta.cli", *argv], ctx),
            ColdOracle(kind, predicate).check,
            keep=partial(_cold_keep, ctx=ctx, files=files),
            traced_run=partial(_spawn, [sys.executable, str(TRACECLI), str(spans_file), *argv], ctx),
            spans_file=spans_file,
        ))
    return ops


WORKLOADS = {"boxcount": boxcount, "export": export, "analytic": analytic, "cli-cold": cli_cold}
