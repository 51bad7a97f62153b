"""Work caps and precision bounds, and the one check that enforces them.

Every command does a bounded amount of work.  Each bound is named here,
once, and :func:`check_work` is the only code that refuses work above a
cap (``CapacityError``, exit 4), before the work starts.  Every working
precision, given on the command line or to a library function, passes
:func:`check_precision`.  Bounds of the mathematical domain, such as the
largest zeta argument, stay with the code whose domain they bound.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import CapacityError, InputError

# Materializing more intervals than this requires an explicit opt-in.
DEFAULT_ENUMERATION_CAP = 2**20

# Stage endpoints are integers over base**depth.  Python prints no integer of
# more than 4300 digits, so a stage past this many bits could be neither
# exported nor described in a message; counting its intervals also takes
# time quadratic in its depth.
MAX_STAGE_BITS = 12_000

# each q point costs about 0.24 ms, so a full grid takes about 2.4 s
MAX_Q_POINTS = 10_000

# Each term n^-s costs tens of microseconds at 50 digits, so a sum of this
# many takes a few seconds.  The automatic (N, K) stays near 1,100 terms up
# to 1000 digits; a K given as 30 reaches this cap from about 265 digits.
MAX_ZETA_TERMS = 100_000

# A level costs about 25 us on top of about 160 us per trial: at the cap that
# is about 30 s of work at depth 30, and about 3 min at depth 1, where the
# per-trial cost dominates.  The quick tour runs 500 x 12 = 6000 levels.
MAX_TRIAL_LEVELS = 1_000_000

# numpy draws binomials only for counts that fit in an int64.
MAX_BINOMIAL_COUNT = 2**63 - 1

DEFAULT_PRECISION_DIGITS = 50

# Analytic values are carried at no fewer decimal digits than this, a few
# more than the 17 a double holds.
MIN_PRECISION_DIGITS = 20

# Zero ordinates are digitized at no fewer digits than this; a run that
# digitizes is raised to it.
MIN_DIGITIZE_DPS = 40

# A zero digit is boundary-flagged when |4t - nearest integer| is below this.
DEFAULT_BOUNDARY_TOL = 1e-6

# Working precision above this makes every mpmath operation slow: zeta at
# 1000 digits takes about 2 s, most of it in about 1,100 exp and log calls.
MAX_PRECISION_DIGITS = 1000

# Fraction('1e9999999') builds a ten-million-digit integer before any range
# check can run, so text with a larger decimal exponent is refused first.
MAX_TEXT_EXPONENT = 1000
_TEXT_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def check_work(amount, cap, what: str, **values) -> None:
    """Raise ``CapacityError`` when ``amount`` exceeds ``cap``.

    ``what`` describes the amount as a ``str.format`` template over
    ``amount`` and ``values``, which the error fills in only then.
    """
    if amount > cap:
        raise CapacityError(what + ", above the cap {cap}", amount=amount, cap=cap, **values)


def check_precision(digits: int, floor: int = MIN_PRECISION_DIGITS) -> None:
    """Refuse a working precision below ``floor`` (``InputError``) or above ``MAX_PRECISION_DIGITS``."""
    if digits < floor:
        raise InputError("precision_digits must be >= {floor}, got {digits}", floor=floor, digits=digits)
    check_work(digits, MAX_PRECISION_DIGITS, "precision of {amount} digits")


def check_text_exponent(text: str) -> None:
    """Raise ``ValueError`` if ``text`` ends in a decimal exponent above ``MAX_TEXT_EXPONENT``."""
    m = _TEXT_EXPONENT.search(text)
    if m:
        exponent = m.group(1).replace("_", "").lstrip("0") or "0"
        if len(exponent) > len(str(MAX_TEXT_EXPONENT)) or int(exponent) > MAX_TEXT_EXPONENT:
            raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_TEXT_EXPONENT}")


def as_integer(value, what: str) -> int:
    """``value`` by ``operator.index``, so Python's and numpy's integers; a float or a text is an ``InputError``."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InputError("{what} must be an integer, got {value!r}", what=what, value=value) from exc


def fraction_from_text(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent above ``MAX_TEXT_EXPONENT``."""
    check_text_exponent(text)
    return Fraction(text)
