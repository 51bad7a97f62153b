"""Exception hierarchy shared by all fraczeta modules, and the one rule that shows a user value on stderr.

Each class carries the CLI exit code its errors end with (see :mod:`fraczeta.cli`); subclasses inherit
their category's code.  The command line's usage errors (exit 2) follow the rule too, by :func:`usage_text`.
"""

# a text value of more characters than this is cut to them in a message
MAX_SHOWN_TEXT = 80


def int_text(n: int) -> str:
    """``n`` in decimal, or ``a N-digit number`` (``a negative N-digit number`` below 0) past 40 digits."""
    if abs(n) < 10**40:
        return str(n)
    # 2**(bits - 1) <= |n| < 2**bits, so n has d or d + 1 digits
    d = int((abs(n).bit_length() - 1) * 0.3010299956639812) + 1
    return f"a {'negative ' * (n < 0)}{d + (abs(n) >= 10**d)}-digit number"


def shown(value):
    """``value`` as a message shows it: an int by :func:`int_text`, a Fraction as its numerator and denominator
    each by :func:`int_text`, a float as it is (so a format spec applies), a file path or an error of this package
    whole, and any other value as its ``str()`` with each run of more than 40 digits as ``<a N-digit number>``,
    cut past ``MAX_SHOWN_TEXT`` characters as ``repr``, and so a template's ``!r``, prints them, then its length."""
    import os  # imported when an error is built, not with the package
    import re
    from fractions import Fraction

    if isinstance(value, (os.PathLike, FraczetaError)):
        return str(value)
    if type(value) is int:
        return int_text(value)
    if isinstance(value, Fraction):
        den = value.denominator
        return int_text(value.numerator) + ("" if den == 1 else f"/{int_text(den)}")
    if isinstance(value, float):
        return value
    text = str(value)
    short = re.sub(r"\d{41,}", lambda m: f"<a {len(m.group())}-digit number>", text)
    n = max(i for i in range(MAX_SHOWN_TEXT + 1) if len(repr(short[:i])) - 2 <= MAX_SHOWN_TEXT)
    return short if n >= len(short) else f"{short[:n]}... ({len(text)} characters)"


def usage_text(message: str, echoed=()) -> str:
    """An argparse usage error's ``message`` less its choices (the usage line above shows them), each ``echoed`` text
    in it that :func:`shown` cuts shown alone, in quotes where argparse wrote its ``repr``, or else it as one text."""
    message = message.rpartition(" (choose from ")[0] or message
    cut = [text for text in set(echoed) if shown(text) != text and (text in message or repr(text) in message)]
    for text in sorted(cut, key=len, reverse=True):
        message = message.replace(repr(text), repr(shown(text))).replace(text, shown(text))
    return message if cut else shown(message)


class FraczetaError(Exception):
    """Base class for all errors raised by this package.

    ``message`` is a ``str.format`` template over ``values``, each shown by :func:`shown`.
    """

    exit_code = 1

    def __init__(self, message: str, **values):
        super().__init__(message.format(**{k: shown(v) for k, v in values.items()}))


class InputError(FraczetaError):
    """A caller-supplied value violates an operation's contract."""

    exit_code = 3


class CapacityError(FraczetaError):
    """An explicit enumeration would exceed the configured cap."""

    exit_code = 4


class DomainError(FraczetaError):
    """A numeric argument lies outside the mathematical domain."""

    exit_code = 5


class ParseError(FraczetaError):
    """A data file could not be parsed; message carries the line number."""

    exit_code = 6


class AddressError(InputError):
    """A digit address indexes outside a level's retained set."""

    def __init__(self, level: int, index: int, size: int):
        self.level = level
        self.index = index
        self.size = size
        super().__init__(
            "address index {index} out of range at level {level} (retained set has {size} digits)",
            index=index, level=level, size=size,
        )


class UnsupportedStructureError(InputError):
    """The operation needs a structure the given object does not have."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class SubcriticalRetentionWarning(UserWarning):
    """Retention probability too small for almost-sure survival.

    Carries the (non-positive) predicted dimension in ``value``.
    """

    def __init__(self, value: float):
        self.value = value
        super().__init__(
            f"subcritical retention: predicted dimension {value} <= 0, "
            "extinction is almost sure"
        )
