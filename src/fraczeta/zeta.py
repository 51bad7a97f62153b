"""High-precision real-argument zeta values via Euler-Maclaurin summation.

The evaluator computes, at a configurable decimal working precision,

    zeta(s) = sum_{n=1}^{N-1} n^(-s)
            + N^(1-s)/(s-1)
            + N^(-s)/2
            + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

with exact-rational Bernoulli numbers (``mpmath.bernfrac``) and an
observable truncation bound: ``error_bound`` is the magnitude the k = K+1
correction term would have.  For real s > 0 the remainder is no larger
than that first omitted term (H. M. Edwards, *Riemann's Zeta Function*,
section 6.4), so the bound certifies ``floor(-log10(error_bound))``
digits.  By default K = ``default_correction_K(digits)``, which is 30 up
to 75 digits and then grows as 0.35 (digits + 10), and N is the smallest
cutoff whose bound lies below the last requested digit and ``_GUARD``
more (parameters chosen together for a target precision, as in
F. Johansson, arXiv:1309.2877).  Each power n^t is the one ``mp.power``
gives, bit for bit; for a t that is not a multiple of 1/2 it reuses a
cached log n.  A real Gamma function (``mpmath.gamma`` at guard
precision) and the s <-> 1-s functional-equation residual complete the
engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_int, mpf_add, mpf_exp, mpf_log, mpf_mul, mpf_pow, round_nearest

from .errors import DomainError, InputError, PoleError
from .limits import (
    DEFAULT_PRECISION_DIGITS,
    MAX_ZETA_TERMS,
    check_precision,
    check_work,
    fraction_from_text,
)


def default_correction_K(precision_digits: int) -> int:
    """The automatic K: max(30, ceil(0.35 (digits + 10))), so 30 up to 75 digits.

    A larger K lets a smaller N certify the same digits: at 100 digits
    (K, N) is (39, 110) instead of (30, 215) for s = 1/2, and at 1000
    digits (354, 1097), where K = 30 would need about 10^17 terms.
    """
    return max(30, -(-7 * (precision_digits + 10) // 20))


# The largest automatic K, the one at the precision cap of 1000 digits, so a
# K read off any result can be given back.
MAX_CORRECTION_K = 354

# Above this s, zeta(s) - 1 < 2^(1-s) is below 10^-300000, so the value is 1
# at any usable precision, while each power n^-s costs more as s grows
# (s = 1e100 takes about 20 s at the default N).
MAX_ZETA_S = 10**6

# Internal guard digits so the last reported digit is trustworthy.
_GUARD = 10


def _to_exact(s) -> Fraction:
    """Exact rational view of an argument given as int/float/str/Fraction."""
    if isinstance(s, Fraction):
        return s
    try:
        return fraction_from_text(s) if isinstance(s, str) else Fraction(s)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InputError("cannot interpret {s!r} as a real argument", s=s) from exc


def _frac_to_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def certified_digits(bound, digits: int) -> int:
    """floor(-log10(bound)): the digits a truncation bound certifies.  A zero
    bound certifies every one of the ``digits`` asked for."""
    return int(mp.floor(-mp.log10(bound))) if bound > 0 else digits


@dataclass(frozen=True)
class ZetaValue:
    """One Euler-Maclaurin evaluation with its truncation provenance.

    ``terms_N`` and ``correction_K`` are the pair the sum used, whether
    given or chosen automatically.
    """

    s: Fraction
    value: mp.mpf
    terms_N: int
    correction_K: int
    error_bound: mp.mpf
    precision_digits: int

    @property
    def certified_digits(self) -> int:
        """Digits of ``value`` that ``error_bound`` certifies."""
        return certified_digits(self.error_bound, self.precision_digits)


@functools.lru_cache(maxsize=1024)
def _bernoulli_coeff(k: int, prec: int) -> mp.mpf:
    """B_2k / (2k)! at ``prec`` bits."""
    with mp.workprec(prec):
        return _frac_to_mpf(Fraction(*mp.bernfrac(2 * k))) / mp.factorial(2 * k)


# Room for every n of the largest automatic N (about 1,100 at 1000 digits): a
# sum that scans more integers than an LRU cache holds misses on every one.
@functools.lru_cache(maxsize=2048)
def _log_int(n: int, prec: int) -> tuple:
    """log n as the raw mpf ``mpf_pow`` takes for a fractional power at ``prec`` bits."""
    return mpf_log(from_int(n), prec + 10, round_nearest)


def _power(n: int, t: tuple, prec: int) -> tuple:
    """``mp.power(n, t)`` at ``prec`` bits, bit for bit, on raw mpfs.

    For a t that is not a multiple of 1/2 this is ``mpf_pow``'s general
    branch, exp(t log n), with log n from the cache; a half-integer or
    integer t keeps ``mpf_pow``'s square-root and integer paths.
    """
    if t[2] < -1:
        return mpf_exp(mpf_mul(t, _log_int(n, prec)), prec, round_nearest)
    return mpf_pow(from_int(n), t, prec, round_nearest)


def _correction_term(s_mp: mp.mpf, n: int, k: int, rising: mp.mpf) -> mp.mpf:
    prec = mp.mp.prec
    coeff = _bernoulli_coeff(k, prec)
    return coeff * rising * mp.make_mpf(_power(n, (-s_mp - 2 * k + 1)._mpf_, prec))


def _auto_terms(s_mp: mp.mpf, correction_K: int, rising: mp.mpf, precision_digits: int) -> int:
    """Smallest N >= 2 whose bound at ``correction_K`` lies below 10^-(digits + _GUARD).

    ``rising`` is s(s+1)...(s+2K).  The bound is C * N^-(s+2K+1), so a float
    logarithm places N within one of the answer and exact bounds step it up.
    """
    target = mp.mpf(10) ** -(precision_digits + _GUARD)
    k = correction_K + 1
    c = abs(_bernoulli_coeff(k, mp.mp.prec) * rising)
    log_n = float(mp.log(c / target)) / float(s_mp + 2 * k - 1)
    estimate = mp.exp(log_n)  # an mpf: past the cap math.exp can overflow
    what = "zeta at {digits} digits needs N = {n} terms"
    check_work(estimate, MAX_ZETA_TERMS, what, digits=precision_digits, n=mp.nstr(estimate, 3))
    n = max(2, math.floor(math.exp(log_n)))
    while abs(_correction_term(s_mp, n, k, rising)) >= target:
        n += 1
    check_work(n, MAX_ZETA_TERMS, what, digits=precision_digits, n=n)
    return n


def zeta_euler_maclaurin(
    s,
    terms_N: int | None = None,
    correction_K: int | None = None,
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
) -> ZetaValue:
    """Evaluate zeta(s) for real s > 0, s != 1.

    ``terms_N`` is the partial-sum cutoff, ``correction_K`` the number of
    Bernoulli correction terms, ``precision_digits`` the working decimal
    precision the result is carried at.  ``correction_K`` defaults to
    ``default_correction_K(precision_digits)`` and ``terms_N`` to the
    smallest cutoff whose ``error_bound`` lies below
    10^-(precision_digits + _GUARD), so the value is certified to every
    digit it carries.
    """
    s_exact = _to_exact(s)
    if s_exact == 1:
        raise PoleError("zeta has a pole at s = 1")
    if s_exact <= 0:
        raise DomainError("s = {s} is out of range; evaluate via the functional equation for arguments <= 0", s=s_exact)
    if s_exact > MAX_ZETA_S:
        raise DomainError("s > {top} is out of range: zeta(s) - 1 < 2^(1-s) there", top=MAX_ZETA_S)
    if correction_K is None:
        correction_K = default_correction_K(precision_digits)
    if terms_N is not None:
        if terms_N < 2:
            raise InputError("terms_N must be >= 2, got {n}", n=terms_N)
        check_work(terms_N, MAX_ZETA_TERMS, "terms_N = {amount}")
    if not (1 <= correction_K <= MAX_CORRECTION_K):
        raise InputError("correction_K must be in 1..{top}, got {k}", top=MAX_CORRECTION_K, k=correction_K)
    check_precision(precision_digits)

    with mp.workdps(precision_digits + _GUARD):
        s_mp = _frac_to_mpf(s_exact)
        # risings[k - 1] = s(s+1)...(s+2k-2) multiplies correction term k
        risings = [s_mp]
        for k in range(1, correction_K + 1):
            risings.append(risings[-1] * ((s_mp + 2 * k - 1) * (s_mp + 2 * k)))
        if terms_N is None:
            terms_N = _auto_terms(s_mp, correction_K, risings[-1], precision_digits)
        prec = mp.mp.prec
        minus_s = (-s_mp)._mpf_
        total = from_int(0)
        for n in range(1, terms_N):
            total = mpf_add(total, _power(n, minus_s, prec), prec, round_nearest)
        total = mp.make_mpf(total)
        total += mp.make_mpf(_power(terms_N, (1 - s_mp)._mpf_, prec)) / (s_mp - 1)
        total += mp.make_mpf(_power(terms_N, minus_s, prec)) / 2
        for k in range(1, correction_K + 1):
            total += _correction_term(s_mp, terms_N, k, risings[k - 1])
        bound = abs(_correction_term(s_mp, terms_N, correction_K + 1, risings[-1]))
    with mp.workdps(precision_digits):
        value = +total
        bound = +bound
    return ZetaValue(
        s=s_exact,
        value=value,
        terms_N=terms_N,
        correction_K=correction_K,
        error_bound=bound,
        precision_digits=precision_digits,
    )


def gamma_real(x, precision_digits: int = DEFAULT_PRECISION_DIGITS) -> mp.mpf:
    """Gamma(x) for real x > 0, evaluated with guard digits and then rounded."""
    x_exact = _to_exact(x)
    if x_exact <= 0:
        raise DomainError("gamma_real needs x > 0, got {x}", x=x_exact)
    check_precision(precision_digits)
    with mp.workdps(precision_digits + _GUARD):
        result = mp.gamma(_frac_to_mpf(x_exact))
    with mp.workdps(precision_digits):
        return +result


def functional_equation_residual(
    s,
    terms_N: int | None = None,
    correction_K: int | None = None,
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
) -> mp.mpf:
    """|zeta(s) - 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)| on (0, 1).

    Both zeta values come from :func:`zeta_euler_maclaurin` with the given
    ``terms_N`` and ``correction_K`` (by default chosen for each argument),
    so the residual measures the engine's internal consistency across
    s <-> 1-s.
    """
    s_exact = _to_exact(s)
    if not (0 < s_exact < 1):
        raise DomainError("functional equation checked on (0, 1) only, got {s}", s=s_exact)
    left = zeta_euler_maclaurin(s_exact, terms_N, correction_K, precision_digits).value
    right = zeta_euler_maclaurin(1 - s_exact, terms_N, correction_K, precision_digits).value
    gamma = gamma_real(1 - s_exact, precision_digits)
    with mp.workdps(precision_digits + _GUARD):
        s_mp = _frac_to_mpf(s_exact)
        chi = (
            mp.power(2, s_mp)
            * mp.power(mp.pi, s_mp - 1)
            * mp.sin(mp.pi * s_mp / 2)
            * gamma
        )
        residual = abs(left - chi * right)
    with mp.workdps(precision_digits):
        return +residual
