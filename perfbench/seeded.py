"""Seeded input generation for the benchmark workloads.

Every draw comes from a ``random.Random`` keyed by the workload name and
the ``--seed`` value, so one seed always gives the same inputs.  Draws
are stratified: every seed gets the same number of items from each
stratum (spec kind, retained-set size, ``s`` range, precision), and only
details that barely change the cost (which residues, which rationals,
which decimal digits) vary, so two seeds ask for comparable work per op.
fraczeta itself only ever sees the generated values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

# s ranges for zeta draws; zeta cost depends on s, so each seed draws one
# value per range and precision.
ZETA_S_STRATA = (
    (Fraction(1, 20), Fraction(19, 20)),
    (Fraction(21, 20), Fraction(2)),
    (Fraction(2), Fraction(4)),
    (Fraction(4), Fraction(10)),
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"fraczeta-perfbench/{workload}/{seed}")


def ordinate_strings(rng: random.Random, count: int, digits: int = 30) -> list[str]:
    """Strictly increasing positive decimals with ``digits`` significant digits."""
    out = []
    whole = 14
    for _ in range(count):
        whole += rng.randint(1, 3)
        frac_len = digits - len(str(whole))
        out.append(f"{whole}.{rng.randrange(10**frac_len):0{frac_len}d}")
    return out


def write_zero_file(path: Path, ordinates: list[str]) -> Path:
    path.write_text("# generated ordinates\n" + "\n".join(ordinates) + "\n")
    return path


def depth_for(size: int, max_count: int) -> int:
    """Deepest stage whose interval count size**depth stays <= max_count."""
    depth = 0
    while size ** (depth + 1) <= max_count:
        depth += 1
    return depth


def modq_specs(rng: random.Random, strata, max_count: int) -> list[tuple[int, tuple[int, ...], int]]:
    """One ``--modq/--keep`` grid per (keep size, q) stratum, as (q, keep, depth).

    The seed picks which residues are kept.  q is fixed per stratum
    because the cost of the exact arithmetic grows with q**depth.
    """
    out = []
    for k, q in strata:
        keep = tuple(sorted(rng.sample(range(q), k)))
        out.append((q, keep, depth_for(k, max_count)))
    return out


def aligned_scales(base: int, depth: int) -> list[Fraction]:
    return [Fraction(1, base**k) for k in range(1, depth + 1)]


def _is_aligned(eps: Fraction, base: int) -> bool:
    den = eps.denominator
    while den % base == 0:
        den //= base
    return eps.numerator == 1 and den == 1


def nonaligned_scales(rng: random.Random, base: int, depth: int, count: int) -> list[Fraction]:
    """``count`` rationals p/q, one per log-stratum of [base**-depth, 1/2], none of them base**-k."""
    lo, hi = math.log(float(base) ** -depth), math.log(0.5)
    out: list[Fraction] = []
    for i in range(count):
        target = math.exp(lo + (i + rng.random()) / count * (hi - lo))
        p = rng.randint(2, 9)
        q = max(p + 1, round(p / target))
        while _is_aligned(Fraction(p, q), base) or Fraction(p, q) in out:
            q += 1
        out.append(Fraction(p, q))
    return out


def rational_in(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi) with denominator >= 3.

    Denominators 1 and 2 are avoided because mpmath takes integer and
    square-root shortcuts there, which would make the cost depend on the seed.
    """
    while True:
        q = rng.randint(7, 60)
        p_lo, p_hi = math.floor(lo * q) + 1, math.ceil(hi * q) - 1
        if p_lo > p_hi:
            continue
        s = Fraction(rng.randint(p_lo, p_hi), q)
        if s.denominator >= 3:
            return s


def weighted_ifs(rng: random.Random, maps: int) -> tuple[list[Fraction], list[Fraction]]:
    """Contraction ratios in [1/9, 1/3] and positive weights summing to 1."""
    ratios = [Fraction(1, rng.randint(3, 9)) for _ in range(maps)]
    raw = [rng.randint(1, 9) for _ in range(maps)]
    weights = [Fraction(w, sum(raw)) for w in raw]
    return ratios, weights
