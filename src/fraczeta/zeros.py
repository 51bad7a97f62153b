"""Ingesting zeta-zero ordinates and digitizing them into base-4 pairs.

Zero files are plain text, one positive decimal per line, '#' comments
allowed.  Values are parsed as exact rationals (never through a binary
float), so reordering and comparisons are exact and the digitization
t = frac(gamma / 2pi), a = floor(4t) can be recomputed at any working
precision from the same source digits.  gamma / 2pi is rounded twice, in
integer arithmetic with round-to-nearest-even: numerator / denominator,
then that quotient / 2pi.  Because published ordinates are truncated
decimals, every digit carries a boundary flag marking how close 4t came
to an integer, where floor() is discontinuous.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .errors import InputError, ParseError
from .limits import (
    DEFAULT_BOUNDARY_TOL, DEFAULT_PRECISION_DIGITS, MIN_DIGITIZE_DPS, as_integer, check_precision, check_text_exponent,
)

CHI2_CRITICAL_05_DF3 = 7.8147


@dataclass(frozen=True)
class ZeroTable:
    """Ordinates as exact rationals plus the text they were read from."""

    gammas: tuple[Fraction, ...]
    gamma_strings: tuple[str, ...]
    ordering: str  # "standard" | "random(seed=...)" | "external-weights(...)"
    ordering_warning: str | None = None

    def __post_init__(self):
        if len(self.gammas) != len(self.gamma_strings):
            raise InputError("gamma values and text rows differ in length")
        if any(g.numerator <= 0 for g in self.gammas):
            raise InputError("all zero ordinates must be positive")

    def __len__(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class DigitEntry:
    n: int  # 1-based position in the table ordering
    gamma: str  # source text of the ordinate
    t: object  # frac(x) as an exact mpmath.mpf, x = gamma / 2pi rounded twice in integers (see digitize)
    a: int  # floor(4t), in 0..3
    boundary_flag: bool


@dataclass(frozen=True)
class DigitSequence:
    entries: tuple[DigitEntry, ...]
    precision_digits: int
    boundary_tol: float

    def digits(self) -> list[int]:
        return [e.a for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class DigitStats:
    counts: tuple[int, int, int, int]
    chi_square: float
    df: int
    reject_at_05: bool


def _data_lines(path, kind: str):
    """(line number, raw line, stripped line) for each data line of a text file.

    Blank lines and '#' comments are skipped.  A line ending in a decimal
    exponent above ``MAX_TEXT_EXPONENT`` is refused before any parser
    expands it into a huge integer.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot read {kind} file {p}: {exc}", kind=kind, p=p, exc=exc) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("{p}: {kind} file is not UTF-8 text: {exc}", p=p, kind=kind, exc=exc) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        try:
            check_text_exponent(token)
        except ValueError as exc:
            raise ParseError("{p}: line {n}: {exc}", p=p, n=lineno, exc=exc) from exc
        yield lineno, raw, token


def parse_zero_file(path) -> ZeroTable:
    """Read a one-ordinate-per-line text file into a ZeroTable.

    Lines starting with '#' and blank lines are skipped.  A line that is
    not a decimal number raises a parse error naming the line.  The sign
    and order checks compare the exact ``Decimal`` each line parses to,
    which is cheaper than comparing the ``Fraction`` built from it.
    """
    p = Path(path)
    decimals: list[Decimal] = []
    gammas: list[Fraction] = []
    strings: list[str] = []
    for lineno, raw, token in _data_lines(p, "zero"):
        try:
            decimal = Decimal(token)
            value = Fraction(decimal)
        except (InvalidOperation, ValueError, OverflowError) as exc:
            raise ParseError("{p}: line {n}: not a decimal number: {raw!r}", p=p, n=lineno, raw=raw) from exc
        if decimal <= 0:
            raise InputError("{p}: line {n}: ordinate must be positive, got {token}", p=p, n=lineno, token=token)
        decimals.append(decimal)
        gammas.append(value)
        strings.append(token)
    if not gammas:
        raise InputError("{p}: no zero ordinates found", p=p)
    warning = None
    if any(b <= a for a, b in zip(decimals, decimals[1:])):
        warning = "ordinates are not strictly increasing; standard ordering not verified"
    return ZeroTable(
        gammas=tuple(gammas),
        gamma_strings=tuple(strings),
        ordering="standard",
        ordering_warning=warning,
    )


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp, for man > 0, rounded to ``prec`` bits with ties to even, as ``from_int`` rounds."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    half = 1 << (n - 1)
    low = man & ((half << 1) - 1)
    man >>= n
    if low > half or (low == half and man & 1):
        man += 1
    return man, exp + n


def _quotient(num: int, num_exp: int, den: int, den_exp: int, prec: int) -> tuple[int, int]:
    """(num * 2**num_exp) / (den * 2**den_exp) correctly rounded to ``prec`` bits, ties to even."""
    shift = prec + 2 - num.bit_length() + den.bit_length()
    if shift < 0:
        shift = 0
    quot, rem = divmod(num << shift, den)
    if rem:  # quot has at least prec + 2 bits, so a sticky low bit rounds as the exact tail would
        quot |= 1
    return _round(quot, num_exp - den_exp - shift, prec)


def digitize(
    table: ZeroTable,
    precision_digits: int = DEFAULT_PRECISION_DIGITS,
    boundary_tol: float = DEFAULT_BOUNDARY_TOL,
) -> DigitSequence:
    """Base-4 digits a_n = floor(4 * frac(gamma_n / 2pi)) at a stated precision.

    Only x = gamma / 2pi is rounded, in two integer steps at the working
    precision with round-to-nearest-even (``_round``, ``_quotient``): the
    numerator and the denominator are each rounded to ``prec`` bits and
    their quotient is rounded, then that quotient divided by 2pi is
    rounded.  A correctly rounded value is unique, so x has the bits
    mpmath's ``from_int`` and ``mpf_div`` give.  Everything after is read
    exactly off x's integer mantissa: the bits below the binary point give
    t, the next two give a, and the rest give the distance from 4t to the
    nearest integer.  So t is x - floor(x) without rounding, and t < 1
    always holds.

    An entry is boundary-flagged when that exact distance is below the
    exact value of the double ``boundary_tol``; those digits are the ones
    an input truncated at fewer decimals could flip.
    """
    from mpmath import mp  # only digitizing needs mpmath, so a reorder does not load it

    check_precision(precision_digits, MIN_DIGITIZE_DPS)
    if not 0 < boundary_tol < math.inf:
        raise InputError("boundary_tol must be finite and positive, got {tol}", tol=boundary_tol)
    tol_num, tol_den = Fraction(boundary_tol).as_integer_ratio()
    entries = []
    with mp.workdps(precision_digits):
        prec, make_mpf = mp.prec, mp.make_mpf
        _, two_pi_man, two_pi_exp, _ = (2 * mp.pi)._mpf_
        for i, (gamma, text) in enumerate(zip(table.gammas, table.gamma_strings), start=1):
            ratio = _quotient(*_round(gamma.numerator, 0, prec), *_round(gamma.denominator, 0, prec), prec)
            man, exp = _quotient(*ratio, two_pi_man, two_pi_exp, prec)  # x = man * 2**exp > 0
            bits = max(-exp, 0)  # fraction bits of x; none when x is an integer
            one = 1 << bits
            frac = man & (one - 1)  # t = frac / 2**bits
            a, rest = divmod(frac << 2, one)  # 4t = a + rest / 2**bits
            distance = min(rest, one - rest)  # |4t - nint(4t)| * 2**bits
            trailing = (frac & -frac).bit_length() - 1  # t as mpmath's normalised tuple: an odd mantissa, or zero
            t = make_mpf((0, frac >> trailing, exp + trailing, frac.bit_length() - trailing)) if frac else mp.zero
            entries.append(DigitEntry(i, text, t, int(a), bool(distance * tol_den < tol_num << bits)))
    return DigitSequence(
        entries=tuple(entries),
        precision_digits=precision_digits,
        boundary_tol=boundary_tol,
    )


def _permuted(table: ZeroTable, order, ordering: str) -> ZeroTable:
    """The table's rows in ``order`` (0-based indices), labelled ``ordering``."""
    return replace(
        table,
        gammas=tuple(table.gammas[i] for i in order),
        gamma_strings=tuple(table.gamma_strings[i] for i in order),
        ordering=ordering,
        ordering_warning=None,
    )


def reorder(table: ZeroTable, mode: str, seed: int | None = None) -> ZeroTable:
    """Return the table sorted ascending or deterministically shuffled."""
    if len(table) == 0:
        raise InputError("cannot reorder an empty table")
    indices = list(range(len(table)))
    if mode == "standard":
        indices.sort(key=lambda i: table.gammas[i])
        return _permuted(table, indices, "standard")
    if mode == "random":
        if seed is None:
            raise InputError("random reorder needs a seed")
        random.Random(seed).shuffle(indices)  # Fisher-Yates under the hood
        return _permuted(table, indices, f"random(seed={seed})")
    raise InputError("unknown reorder mode {mode!r}; use standard or random", mode=mode)


def reorder_external_weights(table: ZeroTable, weights_path) -> ZeroTable:
    """Sort by a sidecar file of '(index, weight)' rows, ascending by weight.

    Indices are 1-based into the table's current order and each must
    appear exactly once.  Ties sort by index.
    """
    p = Path(weights_path)
    weights: dict[int, Fraction] = {}
    for lineno, raw, token in _data_lines(p, "weight"):
        parts = token.split()
        if len(parts) != 2:
            raise ParseError("{p}: line {n}: expected 'index weight', got {raw!r}", p=p, n=lineno, raw=raw)
        try:
            idx = int(parts[0])
            w = Fraction(Decimal(parts[1]))
        except (ValueError, InvalidOperation, OverflowError) as exc:
            raise ParseError("{p}: line {n}: bad index/weight pair {raw!r}", p=p, n=lineno, raw=raw) from exc
        if idx in weights:
            raise InputError("{p}: line {n}: duplicate index {idx}", p=p, n=lineno, idx=idx)
        weights[idx] = w
    expected = set(range(1, len(table) + 1))
    if set(weights) != expected:
        missing = sorted(expected - set(weights))
        extra = sorted(set(weights) - expected)
        raise InputError(
            "{p}: weight indices must cover 1..{size} exactly (missing {missing}, unexpected {extra})",
            p=p, size=len(table), missing=missing[:5], extra=extra[:5],
        )
    order = sorted(range(len(table)), key=lambda i: (weights[i + 1], i))
    return _permuted(table, order, f"external-weights({p})")


def digit_stats(digits) -> DigitStats:
    """Chi-square uniformity statistic over the four digit classes."""
    digits = digits.digits() if hasattr(digits, "digits") else digits
    seq = [as_integer(d, f"digit at position {i}") for i, d in enumerate(digits, start=1)]
    if len(seq) < 8:
        raise InputError("need at least 8 digits for the uniformity statistic, got {size}", size=len(seq))
    if any(d not in (0, 1, 2, 3) for d in seq):
        raise InputError("digits must lie in 0..3")
    counts = tuple(seq.count(d) for d in range(4))
    expected = len(seq) / 4
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts)
    return DigitStats(
        counts=counts,
        chi_square=chi2,
        df=3,
        reject_at_05=chi2 > CHI2_CRITICAL_05_DF3,
    )
