"""Correctness oracles for every op the benchmark times.

Each check returns ``None`` when the output is right and a one-line
reason when it is not.  The references are computed here, independently
of fraczeta wherever that is practical:

- aligned box counts equal the product of retained-set sizes, and
  non-aligned counts come from a brute-force integer count;
- zeta values agree with ``mpmath.zeta`` to min(digits, certified) digits;
- unflagged zero digits match a recomputation at +20 digits with ``mp.pi``;
- exported stages parse back to the right count, total length and cells;
- cold CLI output is strict JSON where JSON is expected, and its result
  payload is byte-identical across runs of the same inputs.

``negative_checks`` feeds every oracle one valid and one corrupted result,
so that no check is vacuous.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import math
from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple

import mpmath as mp

# Catalog entries as (alpha, exact delta, iota sign relative to -zeta(1/2)).
CATALOG = {
    "pess": (1, Fraction(1, 2), 1),
    "cantor13": (1, Fraction(1, 3), 0),
    "zf": (1, Fraction(1, 2), -1),
    "unit-interval": (1, Fraction(1), 0),
    "cantor": (1, math.log(2) / math.log(3), 0),
    "trivial-zeros": (0, Fraction(0), 0),
}
AXIOM_STATUSES = ["pass", "not-assertable", "not-assertable", "pass",
                  "not-assertable", "not-assertable", "pass"]


def strict_json(text):
    """json.loads that rejects NaN and the infinities."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def _agree(value, ref, digits: int) -> bool:
    return abs(value - ref) <= mp.mpf(10) ** (1 - digits) * abs(ref)


def certified_digits(bound, digits: int) -> int:
    """floor(-log10(bound)): the digits a truncation bound certifies.  A zero
    bound certifies every one of the ``digits`` asked for."""
    return int(mp.floor(-mp.log10(bound))) if bound > 0 else digits


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


@functools.lru_cache(maxsize=256)
def _zeta_ref(s: Fraction, dps: int):
    with mp.workdps(dps):
        return mp.zeta(_mpf(s))


def own_digits(ordinates, dps: int) -> list[int]:
    """floor(4 * frac(gamma / 2pi)) recomputed at ``dps`` digits with mp.pi."""
    return _own_digits(tuple(ordinates), dps)


@functools.lru_cache(maxsize=32)
def _own_digits(ordinates: tuple[str, ...], dps: int) -> list[int]:
    with mp.workdps(dps):
        two_pi = 2 * mp.pi
        out = []
        for g in ordinates:
            x = mp.mpf(g) / two_pi
            out.append(int(mp.floor(4 * (x - mp.floor(x)))))
    return out


def zf_levels(ordinates, depth: int) -> list[tuple[int, ...]]:
    """Retained pairs of a zf grid whose digits fraczeta takes at 50 digits."""
    return [tuple(sorted((a, (a + 2) % 4))) for a in own_digits(ordinates[:depth], 70)]


# ---------------------------------------------------------------- grids


class GridOracle:
    """Reference stage cells and box counts for one retention rule and depth."""

    def __init__(self, base: int, levels):
        self.base = base
        self.levels = [tuple(sorted(r)) for r in levels]
        self.depth = len(self.levels)
        self._nums = None
        self._counts: dict[Fraction, int] = {}

    @classmethod
    def from_spec(cls, spec, depth: int):
        return cls(spec.base, [spec.retained_at(k) for k in range(1, depth + 1)])

    def numerators(self) -> list[int]:
        """Left endpoints * base**depth of the stage cells, in increasing order."""
        if self._nums is None:
            nums = [0]
            for retained in self.levels:
                nums = [n * self.base + d for n in nums for d in retained]
            self._nums = nums
        return self._nums

    def box_count(self, eps: Fraction) -> int:
        if eps not in self._counts:
            level = self._aligned_level(eps)
            if level is not None:
                count = prod(len(r) for r in self.levels[:level])
            else:
                count = self._brute_force(eps)
            self._counts[eps] = count
        return self._counts[eps]

    def _aligned_level(self, eps: Fraction):
        for k in range(1, self.depth + 1):
            if eps == Fraction(1, self.base**k):
                return k
        return None

    def _brute_force(self, eps: Fraction) -> int:
        """Distinct boxes [j*eps, (j+1)*eps) meeting a cell in positive length."""
        den = self.base**self.depth
        p, q = eps.numerator, eps.denominator
        boxes = set()
        for n in self.numerators():
            first = (n * q) // (p * den)
            last = -((-(n + 1) * q) // (p * den)) - 1
            boxes.update(range(first, last + 1))
        return len(boxes)

    def check_fit(self, est, scales) -> str | None:
        eps_list = sorted(set(scales), reverse=True)
        points = list(est.sample_points or ())
        if [eps for eps, _ in points] != eps_list:
            return "fit sample scales differ from the requested scales"
        for eps, count in points:
            want = self.box_count(eps)
            if count != want:
                return f"box count at eps={eps} is {count}, expected {want}"
        xs = [math.log(float(1 / eps)) for eps, _ in points]
        ys = [math.log(n) for _, n in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        if abs(est.value - slope) > 1e-9 * max(1.0, abs(slope)):
            return f"fit slope {est.value} differs from the recomputed {slope}"
        return None

    def check_selfsim(self, report) -> str | None:
        if not report.ok or report.levels_checked != self.depth:
            return f"self-similarity report {report} for a self-similar spec"
        return None

    def check_export(self, data: bytes, fmt: str) -> str | None:
        """Parse an exported stage back; count, total length and every cell must match."""
        try:
            text = data.decode()
            if fmt == "csv":
                rows = split_payload(text, "csv")[1][1:]
                cells = []
                for i, row in enumerate(rows):
                    idx, ln, ld, rn, rd = (int(v) for v in row.split(","))
                    if idx != i:
                        return f"row {i} carries index {idx}"
                    cells.append((ln, ld, rn, rd))
                claimed = None
            else:
                result = split_payload(text, "json")[1]
                cells = [tuple(int(v) for v in (*a.split("/"), *b.split("/")))
                         for a, b in result["intervals"]]
                claimed = (result["interval_count"], Fraction(result["total_length"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"export does not parse: {exc}"
        nums = self.numerators()
        den = self.base**self.depth
        if len(cells) != len(nums):
            return f"export has {len(cells)} intervals, expected {len(nums)}"
        length = 0
        for n, (ln, ld, rn, rd) in zip(nums, cells):
            if ln * den != n * ld or rn * den != (n + 1) * rd:
                return f"cell {ln}/{ld}..{rn}/{rd} is not {n}/{den}..{n + 1}/{den}"
            length += rn * (den // rd) - ln * (den // ld)
        total = Fraction(length, den)
        if total != Fraction(len(nums), den):
            return f"total length {total} parsed back, expected {Fraction(len(nums), den)}"
        if claimed is not None and claimed != (len(nums), total):
            return f"JSON header claims {claimed}"
        return None


class ExportOutput(NamedTuple):
    code: int
    digest: bytes  # sha256 of the export without its manifest
    nbytes: int


class ExportCheck:
    """Records the digest of every export of one stage, then (in ``finish``,
    after peak memory is read) verifies the last export in full and requires
    every recorded one to be byte-identical to it, manifest aside."""

    def __init__(self, oracle: GridOracle, path: Path, fmt: str):
        self.oracle, self.path, self.fmt = oracle, path, fmt
        self.seen: list[bytes] = []

    def keep(self, code) -> ExportOutput:
        data = self.path.read_bytes()
        return ExportOutput(code, self.digest(data), len(data))

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(strip_manifest(data.decode(), self.fmt).encode()).digest()

    def __call__(self, out: ExportOutput) -> str | None:
        if out.code != 0:
            return f"construct exited {out.code}"
        self.seen.append(out.digest)
        return None

    def finish(self) -> list[str]:
        data = self.path.read_bytes()
        msg = self.oracle.check_export(data, self.fmt)
        if msg is None:
            reference = self.digest(data)
            msg = "export differs from the verified one"
            return [msg for digest in self.seen if digest != reference]
        return [msg] * len(self.seen)


# ---------------------------------------------------------------- analytic


def check_zeta(zv, s: Fraction, digits: int) -> str | None:
    if zv.s != s or zv.precision_digits != digits:
        return f"zeta echoes s={zv.s}, digits={zv.precision_digits}"
    m = min(digits, certified_digits(zv.error_bound, digits))
    with mp.workdps(digits + 10):
        if not _agree(zv.value, _zeta_ref(s, digits + 10), m):
            return f"zeta({s}) disagrees with mpmath.zeta beyond {m} digits"
    return None


def check_gamma(value, x: Fraction, digits: int) -> str | None:
    with mp.workdps(digits + 10):
        if not _agree(value, mp.gamma(_mpf(x)), digits - 1):
            return f"gamma_real({x}) disagrees with mpmath.gamma at {digits - 1} digits"
    return None


def check_fe(residual, digits: int) -> str | None:
    if not 0 <= residual <= mp.mpf(10) ** (3 - digits):
        return f"functional-equation residual {mp.nstr(residual, 5)} above 1e{3 - digits}"
    return None


def _relation(a: str, b: str) -> str:
    za, zb = CATALOG[a], CATALOG[b]
    key_a = (za[0], float(za[1]), za[2])
    key_b = (zb[0], float(zb[1]), zb[2])
    return "equal" if key_a == key_b else ("greater" if key_a > key_b else "less")


def check_catalog(entries, digits: int) -> str | None:
    if [e.name for e in entries] != list(CATALOG):
        return f"catalog names {[e.name for e in entries]}"
    with mp.workdps(digits + 10):
        minus_z = -_zeta_ref(Fraction(1, 2), digits + 10)
        for e in entries:
            alpha, delta, sign = CATALOG[e.name]
            c = e.cardinality
            if c.alpha != alpha or abs(c.delta - float(delta)) > 1e-15:
                return f"catalog entry {e.name} has alpha={c.alpha}, delta={c.delta}"
            if sign == 0 and c.iota != 0:
                return f"catalog entry {e.name} has iota {c.iota}, expected 0"
            if sign and not _agree(c.iota, sign * minus_z, min(digits, 60)):
                return f"catalog entry {e.name} iota disagrees with -zeta(1/2)"
    return None


def check_compare(rel: str, a: str, b: str) -> str | None:
    want = _relation(a, b)
    return None if rel == want else f"compare({a}, {b}) = {rel}, expected {want}"


def check_conservation(report, digits: int, digit_seq) -> str | None:
    with mp.workdps(digits + 10):  # negation must not round the stored values
        if report.total != 0 or report.iota_pess != -report.iota_zf:
            return "conservation pair does not sum to exact zero"
    msg = check_zeta(report.zeta, Fraction(1, 2), digits)
    if msg:
        return msg
    if digit_seq is not None:
        counts = Counter(digit_seq.digits())
        if report.digit_stats.counts != tuple(counts[d] for d in range(4)):
            return "conservation digit counts differ from a recount"
    return None


def check_axioms(checks) -> str | None:
    statuses = [c.status for c in checks]
    return None if statuses == AXIOM_STATUSES else f"axiom statuses {statuses}"


def check_digitize(seq, ordinates, dps: int) -> str | None:
    if len(seq) != len(ordinates):
        return f"{len(seq)} digits for {len(ordinates)} ordinates"
    ref = own_digits(ordinates, dps + 20)
    for i, e in enumerate(seq.entries):
        if e.n != i + 1 or e.gamma != ordinates[i] or e.a not in (0, 1, 2, 3):
            return f"digit entry {i + 1} is malformed"
        if not e.boundary_flag and e.a != ref[i]:
            return f"unflagged digit {i + 1} is {e.a}, recomputation gives {ref[i]}"
    return None


def check_stats(stats, digits) -> str | None:
    counts = Counter(digits)
    want = tuple(counts[d] for d in range(4))
    expected = len(digits) / 4
    chi2 = sum((c - expected) ** 2 / expected for c in want)
    if stats.counts != want or abs(stats.chi_square - chi2) > 1e-9 * max(1.0, chi2):
        return f"digit stats {stats.counts}/{stats.chi_square}, expected {want}/{chi2}"
    return None


def _tau(q: float, probs, ratios) -> float:
    def excess(t):
        return math.fsum(p**q * r**t for p, r in zip(probs, ratios)) - 1.0
    lo, hi = -1.0, 1.0
    while excess(lo) <= 0:
        lo *= 2
    while excess(hi) >= 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def check_multifractal(points, ratios, weights, q_grid) -> str | None:
    probs = [float(w) for w in weights]
    rs = [float(r) for r in ratios]
    if [p.q for p in points] != [float(q) for q in q_grid]:
        return "multifractal q grid differs from the request"
    for p in points:
        tau = _tau(p.q, probs, rs)
        alpha = -(_tau(p.q + 1e-5, probs, rs) - _tau(p.q - 1e-5, probs, rs)) / 2e-5
        if abs(p.tau - tau) > 1e-9 or abs(p.alpha - alpha) > 1e-6:
            return f"multifractal point q={p.q}: tau={p.tau}, alpha={p.alpha}, expected {tau}, {alpha}"
        if abs(p.f - (p.q * p.alpha + p.tau)) > 1e-12 * max(1.0, abs(p.f)):
            return f"multifractal point q={p.q}: f != q*alpha + tau"
    return None


class TrialsOracle:
    """Checks a Monte Carlo run's bookkeeping and that reruns are identical."""

    def __init__(self, config):
        self.config = config
        self.reference = None

    def check(self, run) -> str | None:
        c = self.config
        if run.config != c or len(run.outcomes) != c.trials:
            return f"run_trials returned {len(run.outcomes)} outcomes for {c}"
        dims = []
        for o in run.outcomes:
            if len(o.survivor_counts) != c.depth + 1 or o.survivor_counts[0] != 1:
                return "trial survivor counts are malformed"
            if o.extinct != (o.survivor_counts[-1] == 0):
                return "trial extinction flag disagrees with its counts"
            if not o.extinct:
                dims.append(math.log2(o.survivor_counts[-1]) / (c.depth * math.log2(c.base)))
        agg = run.aggregate
        if agg.extinction_rate != (c.trials - len(dims)) / c.trials:
            return f"extinction rate {agg.extinction_rate} disagrees with the outcomes"
        if dims and abs(agg.mean_dim - math.fsum(dims) / len(dims)) > 1e-12:
            return f"mean dimension {agg.mean_dim} disagrees with the outcomes"
        if self.reference is None:
            self.reference = run
        elif run != self.reference:
            return "run_trials gave a different result for the same seed"
        return None


# ---------------------------------------------------------------- cold CLI


def strip_manifest(text: str, kind: str) -> str:
    """CLI output (stdout or a written file) without its manifest, which
    carries a timestamp."""
    if kind == "json":
        return text[text.index('\n  "result": '):]
    if kind == "csv":
        first, rest = text.split("\n", 1)
        if not first.startswith("# manifest: "):
            raise ValueError("missing '# manifest:' line")
        return rest
    return text


def split_payload(text: str, kind: str):
    """(result payload text, parsed form) of one CLI stdout, by output kind."""
    payload = strip_manifest(text, kind)
    if kind == "json":
        return payload, strict_json(text)["result"]
    if kind == "csv":
        strict_json(text.split("\n", 1)[0].removeprefix("# manifest: "))
    return payload, payload.splitlines()


class ColdOutput(NamedTuple):
    """What one cold command left: exit code, stdout, stderr, bytes written."""

    code: int
    stdout: bytes
    stderr: bytes = b""
    nbytes: int = 0


class ColdOracle:
    """Exit code, strict JSON, a value predicate, and byte-identical reruns."""

    def __init__(self, kind: str, predicate=None):
        self.kind = kind
        self.predicate = predicate
        self.reference = None

    def check(self, out) -> str | None:
        if out.code != 0:
            return f"exit {out.code}: {out.stderr.decode(errors='replace')[-200:]}"
        try:
            payload, parsed = split_payload(out.stdout.decode(), self.kind)
        except (ValueError, KeyError, TypeError) as exc:
            return f"output is not valid {self.kind}: {exc}"
        if self.reference is None:
            if self.predicate is not None and not self.predicate(parsed):
                return "output fails its value check"
            self.reference = payload
        elif payload != self.reference:
            return "result payload differs from the first run of the same inputs"
        return None


def cold_zeta_ok(result, s: Fraction, digits: int) -> bool:
    m = min(digits, certified_digits(mp.mpf(result["error_bound"]), digits))
    with mp.workdps(digits + 10):
        return result["s"] == str(s) and _agree(mp.mpf(result["value"]), _zeta_ref(s, digits + 10), m - 1)


def cold_digits_ok(rows, ordinates, dps: int) -> bool:
    ref = own_digits(ordinates, dps + 20)
    cells = [r.split(",") for r in rows[1:]]
    return len(cells) == len(ordinates) and all(
        c[1] == g and (c[4] == "true" or int(c[3]) == a)
        for c, g, a in zip(cells, ordinates, ref)
    )


# ---------------------------------------------------------------- negative checks


def negative_checks(fz, work) -> tuple[int, list[str]]:
    """Run every oracle on one valid and one corrupted result of a small input.

    Returns the number of oracles exercised and a description of each one
    that rejected the valid result or accepted the corrupted one.
    """
    checked: list[str] = []
    missed: list[str] = []
    replace = dataclasses.replace

    def expect(name, good, bad):
        checked.append(name)
        if good is not None or bad is None:
            missed.append(f"{name}: valid={good!r}, corrupted={bad!r}")

    spec = fz.make_named_spec("pess")
    grid = GridOracle.from_spec(spec, 4)
    odd = Fraction(3, 10)
    scales = [Fraction(1, 4**k) for k in range(1, 5)] + [odd]
    est = fz.box_dimension_fit(fz.build_stage(spec, 4), scales)
    for name, target in (("box count aligned", Fraction(1, 16)), ("box count non-aligned", odd)):
        bad = replace(est, sample_points=tuple(
            (e, n + (e == target)) for e, n in est.sample_points))
        expect(name, grid.check_fit(est, scales), grid.check_fit(bad, scales))
    report = fz.self_similarity_check(spec, 4)
    expect("self-similarity", grid.check_selfsim(report), grid.check_selfsim(replace(report, ok=False)))

    for fmt in ("csv", "json"):
        path = work / f"negative.{fmt}"
        importlib.import_module("fraczeta.cli").main(["construct", "pess", "--depth", "4", "--format", fmt, "--out", str(path)])
        data = path.read_bytes()
        if fmt == "csv":
            bad = data[:data.rstrip(b"\n").rindex(b"\n") + 1]  # last interval dropped
        else:
            bad = data.replace(b'"85/256"', b'"87/256"', 1)
        expect(f"export {fmt}", grid.check_export(data, fmt), grid.check_export(bad, fmt))
        same, other = ExportCheck(grid, path, fmt), ExportCheck(grid, path, fmt)
        for rerun, digest in ((same, same.keep(0).digest), (other, b"other digest")):
            rerun(rerun.keep(0))
            rerun(ExportOutput(0, digest, 0))
        expect(f"export {fmt} rerun identity", same.finish() or None, other.finish() or None)

    s = Fraction(2, 3)
    zv = fz.zeta_euler_maclaurin(s, 50, 30, 30)
    expect("zeta", check_zeta(zv, s, 30),
           check_zeta(replace(zv, value=zv.value * (1 + mp.mpf(10) ** -25)), s, 30))
    g = fz.gamma_real(s, 30)
    expect("gamma", check_gamma(g, s, 30), check_gamma(g * (1 + mp.mpf(10) ** -20), s, 30))
    res = fz.functional_equation_residual(Fraction(1, 3), 50, 30, 30)
    expect("functional equation", check_fe(res, 30), check_fe(mp.mpf(10) ** -20, 30))

    entries = fz.catalog(precision_digits=30)
    card = entries[0].cardinality
    bad_entries = [replace(entries[0], cardinality=replace(card, iota=-card.iota)), *entries[1:]]
    expect("catalog", check_catalog(entries, 30), check_catalog(bad_entries, 30))
    rel = fz.compare(entries[0].cardinality, entries[1].cardinality)
    expect("compare", check_compare(rel, "pess", "cantor13"),
           check_compare("less" if rel != "less" else "greater", "pess", "cantor13"))
    rep = fz.conservation_report(precision_digits=30)
    expect("conservation", check_conservation(rep, 30, None),
           check_conservation(replace(rep, total=mp.mpf(1)), 30, None))
    axioms = fz.axiom_suite(precision_digits=30)
    expect("axioms", check_axioms(axioms), check_axioms([replace(axioms[0], status="fail"), *axioms[1:]]))

    ordinates = [f"{14 + 3 * i}.{(7**30 * (i + 1)) % 10**27:027d}" for i in range(12)]
    zero_file = work / "negative-zeros.txt"
    zero_file.write_text("\n".join(ordinates) + "\n")
    seq = fz.digitize(fz.parse_zero_file(zero_file), 50)
    i = next(k for k, e in enumerate(seq.entries) if not e.boundary_flag)
    bad_seq = replace(seq, entries=tuple(
        replace(e, a=(e.a + 1) % 4) if k == i else e for k, e in enumerate(seq.entries)))
    expect("digitize", check_digitize(seq, ordinates, 50), check_digitize(bad_seq, ordinates, 50))
    stats = fz.digit_stats(seq)
    bad_stats = replace(stats, counts=(stats.counts[0] + 1, *stats.counts[1:]))
    expect("digit stats", check_stats(stats, seq.digits()), check_stats(bad_stats, seq.digits()))

    ratios, weights = [Fraction(1, 4), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]
    ifs = fz.GeneralIfsSpec(maps=tuple(fz.IfsMap(r, Fraction(0), w) for r, w in zip(ratios, weights)))
    q_grid = [-1.0, 0.0, 1.0, 2.0]
    pts = fz.multifractal_spectrum(ifs, q_grid)
    bad_pts = [replace(pts[0], tau=pts[0].tau + 1e-6), *pts[1:]]
    expect("multifractal", check_multifractal(pts, ratios, weights, q_grid),
           check_multifractal(bad_pts, ratios, weights, q_grid))

    trials = TrialsOracle(fz.RetentionConfig.uniform(0.75, 6, 20, 3))
    run = fz.run_trials(trials.config)
    bad_run = replace(run, aggregate=replace(
        run.aggregate, extinction_rate=run.aggregate.extinction_rate + 0.5))
    expect("monte carlo", trials.check(run), trials.check(bad_run))

    text = '{\n  "manifest": {},\n  "result": {"x": 1}\n}\n'
    cold = ColdOracle("json", predicate=lambda r: r["x"] == 1)
    expect("cold value check", cold.check(ColdOutput(0, text.encode())),
           ColdOracle("json", predicate=lambda r: r["x"] == 1).check(
               ColdOutput(0, text.replace("1", "2").encode())))
    expect("cold strict json", ColdOracle("json").check(ColdOutput(0, text.encode())),
           ColdOracle("json").check(ColdOutput(0, text.replace("1", "NaN").encode())))
    expect("cold rerun identity", cold.check(ColdOutput(0, text.encode())),
           cold.check(ColdOutput(0, text.replace("1", "3").encode())))
    expect("cold exit code", ColdOracle("json").check(ColdOutput(0, text.encode())),
           ColdOracle("json").check(ColdOutput(3, b"", b"error: x")))
    return len(checked), missed
