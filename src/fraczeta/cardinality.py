"""Informational-cardinality triples, comparison, catalog, and reports.

A triple (alpha, delta, iota) holds a countability indicator, a
dimension, and a signed information value.  Triples compare
lexicographically.  Dimensions of grid constructions are log-ratios of
integers, so ties like log 2/log 4 = log 4/log 16 are decided exactly by
canonicalizing the integer pair instead of trusting float equality; only
genuinely irrational-vs-numeric comparisons fall back to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import mpmath as mp

from .errors import InputError
from .limits import DEFAULT_PRECISION_DIGITS
from .zeros import DigitSequence, DigitStats, digit_stats
from .zeta import ZetaValue, zeta_euler_maclaurin

COMPARE_TOL = 1e-12

LESS, EQUAL, GREATER = "less", "equal", "greater"
DOMINATES, DOMINATED, INCOMPARABLE = "dominates", "dominated", "incomparable"


def _primitive_power(n: int) -> tuple[int, int]:
    """(c, e) with n = c**e and e maximal, so c is not itself a power."""
    for e in range(n.bit_length() - 1, 1, -1):
        guess = round(n ** (1.0 / e))
        for cand in (guess - 1, guess, guess + 1):
            if cand >= 2 and cand**e == n:
                return cand, e
    return n, 1


@dataclass(frozen=True)
class LogRatio:
    """The exact value log(num) / log(base) for integers num >= 1, base >= 2."""

    num: int
    base: int

    def __post_init__(self):
        if self.num < 1 or self.base < 2:
            raise InputError(
                "log ratio needs num >= 1 and base >= 2, got log {num} / log {base}", num=self.num, base=self.base
            )

    def as_float(self) -> float:
        return math.log(self.num) / math.log(self.base)

    def canonical(self) -> tuple[int, int, int, int]:
        """(c, i, d, j) with value = i*log(c) / (j*log(d)), c and d primitive."""
        if self.num == 1:
            return (1, 0, self.base, 1)
        c, i = _primitive_power(self.num)
        d, j = _primitive_power(self.base)
        g = math.gcd(i, j)
        return (c, i // g, d, j // g)

    def as_fraction(self) -> Fraction | None:
        """Exact rational value when num and base are powers of one integer."""
        c, i, d, j = self.canonical()
        if i == 0:
            return Fraction(0)
        return Fraction(i, j) if c == d else None

    def __str__(self) -> str:
        return f"log {self.num} / log {self.base}"


ExactDelta = Fraction | LogRatio


@dataclass(frozen=True)
class InfoCardinality:
    """(alpha, delta, iota) with optional exact delta form and dimension vector."""

    alpha: int
    delta: float
    iota: object  # float or mpmath.mpf
    delta_exact: ExactDelta | None = None
    dim_vector: tuple[float, ...] | None = None
    provenance: Mapping[str, str] = field(
        default_factory=lambda: {"alpha": "defined", "delta": "defined", "iota": "defined"}
    )

    def __post_init__(self):
        if self.alpha not in (0, 1):
            raise InputError("alpha must be 0 or 1, got {alpha}", alpha=self.alpha)
        if self.dim_vector is not None:
            if not self.dim_vector:
                raise InputError("dimension vector must be non-empty when present")
            if abs(self.dim_vector[0] - self.delta) > COMPARE_TOL:
                raise InputError(
                    "dimension vector head {head} does not match delta {delta}",
                    head=self.dim_vector[0], delta=self.delta,
                )

    def vector(self) -> tuple[float, ...]:
        return self.dim_vector if self.dim_vector is not None else (self.delta,)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    cardinality: InfoCardinality
    notes: str
    zeta: ZetaValue | None = None  # the evaluation a live iota comes from


def _exact_as_fraction(exact: ExactDelta | None) -> Fraction | None:
    if isinstance(exact, Fraction):
        return exact
    if isinstance(exact, LogRatio):
        return exact.as_fraction()
    return None


def _compare_reals(x, y, tol: float = COMPARE_TOL) -> str:
    diff = x - y
    if abs(diff) < tol:
        return EQUAL
    return GREATER if diff > 0 else LESS


def compare_delta(a: InfoCardinality, b: InfoCardinality) -> str:
    """Dimension comparison, exact whenever both sides admit exact forms."""
    fa = _exact_as_fraction(a.delta_exact)
    fb = _exact_as_fraction(b.delta_exact)
    if fa is not None and fb is not None:
        if fa == fb:
            return EQUAL
        return GREATER if fa > fb else LESS
    if isinstance(a.delta_exact, LogRatio) and isinstance(b.delta_exact, LogRatio):
        if a.delta_exact.canonical() == b.delta_exact.canonical():
            return EQUAL
    return _compare_reals(a.delta, b.delta)


def compare_trace(a: InfoCardinality, b: InfoCardinality):
    """Lexicographic comparison plus the per-component relations examined."""
    trace = []
    rel = EQUAL if a.alpha == b.alpha else (GREATER if a.alpha > b.alpha else LESS)
    trace.append({"component": "alpha", "a": a.alpha, "b": b.alpha, "relation": rel})
    if rel != EQUAL:
        return rel, trace
    rel = compare_delta(a, b)
    trace.append(
        {
            "component": "delta",
            "a": a.delta,
            "b": b.delta,
            "a_exact": str(a.delta_exact) if a.delta_exact is not None else None,
            "b_exact": str(b.delta_exact) if b.delta_exact is not None else None,
            "relation": rel,
        }
    )
    if rel != EQUAL:
        return rel, trace
    rel = _compare_reals(a.iota, b.iota)
    trace.append(
        {"component": "iota", "a": float(a.iota), "b": float(b.iota), "relation": rel}
    )
    return rel, trace


def compare(a: InfoCardinality, b: InfoCardinality) -> str:
    return compare_trace(a, b)[0]


def compare_extended(a: InfoCardinality, b: InfoCardinality) -> str:
    """Componentwise comparison: alpha, then the dimension vector, then iota."""
    va, vb = a.vector(), b.vector()
    if len(va) != len(vb):
        raise InputError("dimension vectors differ in length ({a} vs {b})", a=len(va), b=len(vb))
    if a.alpha != b.alpha:
        return DOMINATES if a.alpha > b.alpha else DOMINATED
    rels = {_compare_reals(x, y) for x, y in zip(va, vb)}
    if GREATER in rels and LESS in rels:
        return INCOMPARABLE
    if GREATER in rels:
        return DOMINATES
    if LESS in rels:
        return DOMINATED
    rel = _compare_reals(a.iota, b.iota)
    if rel == EQUAL:
        return EQUAL
    return DOMINATES if rel == GREATER else DOMINATED


def empty_set_cardinality() -> InfoCardinality:
    return InfoCardinality(alpha=0, delta=0.0, iota=0.0, delta_exact=Fraction(0))


# A single point is countable, has dimension 0 and carries no information.
singleton_cardinality = empty_set_cardinality


# name -> built-in grid construction backing the entry, for consistency checks
CATALOG_GRIDS = {
    "pess": "pess",
    "cantor13": "cantor13",
    "cantor": "classic-cantor",
}


def _zeta_half(precision_digits: int) -> ZetaValue:
    return zeta_euler_maclaurin(Fraction(1, 2), precision_digits=precision_digits)


def catalog(precision_digits: int = DEFAULT_PRECISION_DIGITS) -> list[CatalogEntry]:
    """The built-in comparison table; iota values are evaluated live.

    One shared zeta(1/2) evaluation feeds the two signed information
    values, so they negate each other bit for bit.
    """
    zv = _zeta_half(precision_digits)
    z = zv.value
    with mp.workdps(precision_digits):
        neg_z = -z  # negate at full precision; ambient context would round

    def entry(name, countable, delta_exact, iota, iota_prov, notes, zeta=None):
        frac = _exact_as_fraction(delta_exact)
        delta = float(frac) if frac is not None else delta_exact.as_float()
        card = InfoCardinality(
            alpha=0 if countable else 1,
            delta=delta,
            iota=iota,
            delta_exact=delta_exact,
            dim_vector=(delta, delta),  # Hausdorff and box coincide here
            provenance={"alpha": "defined", "delta": "computed", "iota": iota_prov},
        )
        return CatalogEntry(name=name, cardinality=card, notes=notes, zeta=zeta)

    return [
        entry(
            "pess", False, LogRatio(2, 4), neg_z, "defined",
            "base-4 grid keeping digit positions 1 and 3; iota = -zeta(1/2), live",
            zv,
        ),
        entry(
            "cantor13", False, LogRatio(2, 8), 0.0, "default-zero",
            "ratio-1/8 pair keeping the first and last eighth",
        ),
        entry(
            "zf", False, LogRatio(2, 4), z, "defined",
            "base-4 grid driven by zero digits; iota = zeta(1/2), live",
            zv,
        ),
        entry(
            "unit-interval", False, Fraction(1), 0.0, "default-zero",
            "the whole interval [0, 1]",
        ),
        entry(
            "cantor", False, LogRatio(2, 3), 0.0, "default-zero",
            "middle-thirds construction",
        ),
        entry(
            "trivial-zeros", True, Fraction(0), 0.0, "defined",
            "countable set of negative even integers; every component zero",
        ),
    ]


def catalog_map(precision_digits: int = DEFAULT_PRECISION_DIGITS) -> dict[str, CatalogEntry]:
    return {e.name: e for e in catalog(precision_digits)}


@dataclass(frozen=True)
class ConservationReport:
    iota_pess: mp.mpf
    iota_zf: mp.mpf
    total: mp.mpf
    caveat: str
    zeta: ZetaValue
    digit_stats: DigitStats | None = None


CONSERVATION_CAVEAT = (
    "definitional identity: both information values are assigned as opposite "
    "signs of one shared zeta(1/2) evaluation, so their sum is zero by "
    "construction; no empirical estimate of the zero-set value is made"
)


def conservation_report(
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
    zero_digits: DigitSequence | None = None,
) -> ConservationReport:
    """Signed pair (-zeta(1/2), +zeta(1/2)), their exact zero sum, and a caveat.

    When a digitized zero sequence is supplied, its digit-uniformity
    statistics ride along as the only empirical probe offered.
    """
    zv = _zeta_half(precision_digits)
    with mp.workdps(precision_digits):
        iota_pess = -zv.value  # exact sign flip at full precision
        iota_zf = zv.value
        total = iota_pess + iota_zf
    stats = digit_stats(zero_digits) if zero_digits is not None else None
    return ConservationReport(
        iota_pess=iota_pess,
        iota_zf=iota_zf,
        total=total,
        caveat=CONSERVATION_CAVEAT,
        zeta=zv,
        digit_stats=stats,
    )


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    status: str  # "pass" | "fail" | "not-assertable"
    detail: str


def axiom_suite(precision_digits: int = DEFAULT_PRECISION_DIGITS) -> list[AxiomCheck]:
    """Assert the checkable information-measure axioms; report the rest."""
    entries = catalog_map(precision_digits)
    checks = []

    a1_ok = empty_set_cardinality().iota == 0 and singleton_cardinality().iota == 0
    checks.append(
        AxiomCheck(
            "A1",
            "pass" if a1_ok else "fail",
            "empty set and singletons carry information value 0",
        )
    )
    checks.append(
        AxiomCheck(
            "A2",
            "not-assertable",
            "L-value assignment outside the built-in catalog needs a chosen "
            "L-function; no algorithm exists for arbitrary structures",
        )
    )
    checks.append(
        AxiomCheck(
            "A3",
            "not-assertable",
            "additivity presupposes a notion of independent structures that "
            "the signed-value measure does not operationalize",
        )
    )
    a4_sum = entries["pess"].cardinality.iota + entries["zf"].cardinality.iota
    checks.append(
        AxiomCheck(
            "A4",
            "pass" if a4_sum == 0 else "fail",
            f"dual pair sums to {mp.nstr(a4_sum, 10)} (exact zero expected)",
        )
    )
    checks.append(
        AxiomCheck(
            "A5",
            "not-assertable",
            "anti-monotonicity references the information content of proper "
            "subsets without an operational definition",
        )
    )
    checks.append(
        AxiomCheck(
            "A6",
            "not-assertable",
            "continuity under construction perturbations is qualitative; no "
            "metric on constructions is specified",
        )
    )
    a7_ok = all(
        entries[name].cardinality.iota == 0
        for name in ("cantor13", "unit-interval", "cantor")
    )
    checks.append(
        AxiomCheck(
            "A7",
            "pass" if a7_ok else "fail",
            "structures with no attached L-value default to 0",
        )
    )
    return checks
