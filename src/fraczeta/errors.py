"""Exception hierarchy shared by all fraczeta modules.

Each class carries the CLI exit code its errors end with (see
:mod:`fraczeta.cli`); subclasses inherit their category's code.
"""


class FraczetaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


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
            f"address index {index} out of range at level {level} "
            f"(retained set has {size} digits)"
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
