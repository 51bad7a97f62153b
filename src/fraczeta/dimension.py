"""Dimension estimators: analytic, box-counting, and multifractal.

The analytic route solves sum(r_i^s) = 1 for the similarity exponent;
the empirical route counts grid boxes against exact stage endpoints and
regresses log N(eps) on log(1/eps).  For weighted self-similar measures
the moment exponent tau(q) solves sum(p_i^q r_i^tau) = 1 and the local
dimension/spectrum pair comes from the transform
alpha = -dtau/dq, f = q*alpha + tau (Halsey et al., Phys. Rev. A 33,
1141, 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import DomainError, InputError
from .grids import GeneralIfsSpec, StageSet
from .limits import DEFAULT_ENUMERATION_CAP, check_work

BISECTION_TOL = 1e-12

_MAX_BISECT = 200


@dataclass(frozen=True)
class DimensionEstimate:
    method: str  # "similarity" | "boxcount"
    value: float
    residual: float  # regression r^2, or |sum r^s - 1| at the root
    sample_points: tuple[tuple[Fraction, int], ...] | None = None


@dataclass(frozen=True)
class MultifractalPoint:
    q: float
    tau: float
    alpha: float
    f: float


def _bisect_decreasing(fn, lo: float, hi: float) -> float:
    """Root of a strictly decreasing function, bracketed then bisected to ulp."""
    span = hi - lo
    while fn(lo) <= 0:
        lo -= span
        span *= 2
    span = hi - lo
    while fn(hi) >= 0:
        hi += span
        span *= 2
    for _ in range(_MAX_BISECT):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _doubles(values: Sequence, name: str, top: float = math.inf) -> list[float]:
    """Values in (0, top) as doubles, checked as exact fractions first; none may round to 0 or to ``top``."""
    exact = [Fraction(v) for v in values]
    for v in exact:
        if not 0 < v < top:
            raise InputError("{name}s must lie in (0, {top:g}), got {value}", name=name, top=top, value=v)
        if not 0 < float(v) < top:
            raise InputError("{name} {v} leaves the double range: it rounds to {d:g}", name=name, v=v, d=float(v))
    return [float(v) for v in exact]


def similarity_dimension(ratios: Sequence) -> DimensionEstimate:
    """Exponent s solving sum(r_i^s) = 1 for contraction ratios in (0, 1).

    Equal ratios take the closed form log N / -log(r), cross-checked
    against the bisection root to a relative BISECTION_TOL; unequal
    ratios use bisection alone.
    """
    if not ratios:
        raise InputError("need at least one contraction ratio")
    vals = _doubles(ratios, "ratio", 1.0)
    if len(vals) == 1:
        return DimensionEstimate(method="similarity", value=0.0, residual=0.0)

    def excess(s: float) -> float:
        return math.fsum(r**s for r in vals) - 1.0

    root = _bisect_decreasing(excess, 0.0, 1.0)
    if all(r == vals[0] for r in vals):
        # -log(r) keeps the digits of 1 - r that 1 / r rounds away
        closed = math.log(len(vals)) / -math.log(vals[0])
        if abs(closed - root) > BISECTION_TOL * closed:
            raise ArithmeticError(f"closed form {closed} and bisection {root} differ beyond a relative {BISECTION_TOL}")
        root = closed
    return DimensionEstimate(
        method="similarity", value=root, residual=abs(excess(root))
    )


def aligned_level(eps: Fraction, base: int) -> int | None:
    """The k >= 0 with ``eps == base**-k``, or None when eps is not such a power.

    log(q)/log(b) is within rounding of the integer k when q = b**k, so one
    rounded estimate and one power confirm it, at any size of q.
    """
    if eps.numerator != 1:
        return None
    q = eps.denominator
    k = round(math.log(q) / math.log(base))
    return k if base**k == q else None


def _descent_count(levels: list[tuple[int, ...]], base: int, p: int, q: int) -> int:
    """Boxes of width p/q met by the stage whose level-k retained digits are ``levels[k - 1]``.

    The level-k cell [m, m + 1] / b**k spans boxes m*q // (b**k * p) to ceil((m + 1)*q / (b**k * p)) - 1.
    Visited depth first in increasing order, a cell is skipped with its subtree when its boxes are all
    counted already (up to ``last``); one inside a single box counts it, since every cell holds stage
    of positive length; a leaf counts its boxes past ``last``.
    """
    dens = [p * base**k for k in range(len(levels) + 1)]
    count, last, stack = 0, -1, [(0, 0)]
    while stack:
        k, m = stack.pop()
        hi = -(-(m + 1) * q // dens[k]) - 1
        if hi > last:
            lo = m * q // dens[k]
            if lo == hi or k == len(levels):
                count += hi - max(lo, last + 1) + 1
                last = hi
            else:
                stack.extend([(k + 1, m * base + d) for d in reversed(levels[k])])  # smallest pops first
    return count


def box_count(stage: StageSet, epsilon) -> int:
    """Number of grid boxes [j*eps, (j+1)*eps) overlapping the stage's union.

    A box counts when its overlap with some stage interval has positive length, so an
    aligned scale eps = b**-k counts the stage-k ancestor cells, in closed form: the product
    of the first k retained-set sizes for k <= depth, else ``interval_count * b**(k - depth)``.
    Any other scale p/q indexes boxes by integer floor division: a coarse one,
    eps >= b**-(depth - 1), in a pruned descent of the digit tree (:func:`_descent_count`)
    when the tree has at most twice as many nodes as the stage has intervals, else on each
    interval's endpoints.  A lone call is not capped, but visits at most twice the interval
    count in nodes; :func:`box_dimension_fit` checks its work against
    ``limits.DEFAULT_ENUMERATION_CAP`` before it counts.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive, got {eps}", eps=eps)
    k = aligned_level(eps, stage.spec.base)
    if k is not None:
        if k > stage.depth:
            return stage.interval_count * stage.spec.base ** (k - stage.depth)
        # one box per stage-k ancestor cell
        return StageSet(spec=stage.spec, depth=k).interval_count
    p, q = eps.numerator, eps.denominator
    if stage.depth and p * stage.spec.base ** (stage.depth - 1) >= q:
        levels = [stage.spec.retained_at(k) for k in range(1, stage.depth + 1)]
        # the tree's node count is at most twice its leaves' whenever every level keeps at least two digits
        if sum(accumulate(map(len, levels), int.__mul__, initial=1)) <= 2 * stage.interval_count:
            return _descent_count(levels, stage.spec.base, p, q)
    count, last = 0, -1
    # Leaf-level scales read intervals(), not numerators(): perfbench measures
    # dimension.boxes_per_interval from the intervals that box_count pulls
    # through StageSet.intervals, and reads null when it pulls none.
    for left, right in stage.intervals():
        j_lo = max(left.numerator * q // (left.denominator * p), last + 1)
        j_hi = -(-right.numerator * q // (right.denominator * p)) - 1  # ceil(right/eps) - 1
        if j_hi >= j_lo:
            count += j_hi - j_lo + 1
            last = j_hi
    return count


def _log_inv(eps: Fraction, base: int | None = None) -> float:
    """log(1/eps) in double precision, for eps > 0; an error names eps as a power of base when it is one."""
    try:
        return math.log(float(1 / eps))
    except (OverflowError, ValueError) as exc:  # 1/eps overflows or underflows a double
        k = aligned_level(eps, base) if base else None
        scale = "scale {eps}" if k is None else "scale {base}^-{k}"
        raise InputError(
            scale + " leaves the double range: every scale must keep 1/eps within it", eps=eps, base=base, k=k
        ) from exc


def box_dimension_fit(stage: StageSet, scales: Sequence) -> DimensionEstimate:
    """OLS slope of log N(eps) against log(1/eps) over the distinct scales, largest first.

    Before any box is counted, the fit checks that it has at least 3
    positive scales, each with log(1/eps) in double precision, whose logs
    are not all equal, and that counting at the non-aligned scales, each
    charged the whole stage (an upper bound where a coarse scale descends
    the digit tree), stays within ``limits.DEFAULT_ENUMERATION_CAP``.
    """
    base = stage.spec.base
    eps_list = sorted({Fraction(e) for e in scales}, reverse=True)
    if len(eps_list) < 3:
        raise InputError("need at least 3 distinct scales, got {n}", n=len(eps_list))
    if eps_list[-1] <= 0:
        raise InputError("epsilon must be positive, got {eps}", eps=eps_list[-1])
    xs = [_log_inv(eps, base) for eps in eps_list]
    if xs[0] == xs[-1]:
        raise InputError(
            "the {n} scales share one log(1/eps) in double precision; the fit needs two that differ", n=len(eps_list)
        )
    # an aligned scale is counted in closed form; each other scale enumerates the whole
    # stage once at most, and each interval costs arithmetic on its endpoints' and the scale's machine words
    enumerated = [eps for eps in eps_list if aligned_level(eps, base) is None]
    scale_bits = max((max(eps.numerator.bit_length(), eps.denominator.bit_length())
                      for eps in enumerated), default=0)
    words = (stage.spec.endpoint_bits(stage.depth) + scale_bits) // 64 + 1
    check_work(
        stage.interval_count * len(enumerated) * words,
        DEFAULT_ENUMERATION_CAP,
        "box counting {intervals} intervals at {scales} non-aligned scales, with "
        "{words}-word endpoints and scales, costs {amount} interval-words",
        intervals=stage.interval_count, words=words, scales=len(enumerated),
    )
    import statistics  # only the fit needs it

    points = [(eps, box_count(stage, eps)) for eps in eps_list]
    ys = [math.log(n) for _, n in points]
    fit = statistics.linear_regression(xs, ys)
    try:
        r2 = statistics.correlation(xs, ys) ** 2
    except statistics.StatisticsError:
        # all counts equal: slope 0 fits exactly
        r2 = 1.0
    return DimensionEstimate(
        method="boxcount",
        value=fit.slope,
        residual=r2,
        sample_points=tuple(points),
    )


def fit_point_rows(estimate: DimensionEstimate) -> list[str]:
    """Plot-ready CSV lines of the regression sample: a header, then epsilon, count, and their logs."""
    if estimate.sample_points is None:
        raise InputError("estimate carries no sample points (similarity method?)")
    return ["epsilon,count,log_inv_eps,log_count"] + [
        f"{eps.numerator}/{eps.denominator},{count},{_log_inv(eps)!r},{math.log(count)!r}"
        for eps, count in estimate.sample_points
    ]


def multifractal_spectrum(ifs: GeneralIfsSpec, q_grid: Sequence[float]) -> list[MultifractalPoint]:
    """Moment exponents and the local-dimension spectrum on a q grid.

    tau(q) is bisected to machine precision.  Differentiating
    sum(p_i^q r_i^tau) = 1 in q gives alpha(q) = -dtau/dq in closed form,
    sum(w_i ln p_i) / sum(w_i ln r_i) with weights w_i = p_i^q r_i^tau.
    """
    weights = ifs.weights
    if weights is None:
        raise InputError("multifractal spectrum needs per-map weights")
    ratios = _doubles(ifs.ratios, "ratio", 1.0)
    probs = _doubles(weights, "weight")
    points = []
    for q in q_grid:
        try:
            q = float(q)

            def moments(t: float) -> list[float]:
                return [p**q * r**t for p, r in zip(probs, ratios)]

            t = _bisect_decreasing(lambda t: math.fsum(moments(t)) - 1.0, -1.0, 1.0)
            w = moments(t)
        except OverflowError as exc:
            raise DomainError("q = {q}: the moments p**q * r**tau overflow a double; use a smaller |q|", q=q) from exc
        alpha = math.fsum(wi * math.log(p) for wi, p in zip(w, probs)) / math.fsum(
            wi * math.log(r) for wi, r in zip(w, ratios)
        )
        points.append(MultifractalPoint(q=q, tau=t, alpha=alpha, f=q * alpha + t))
    return points
