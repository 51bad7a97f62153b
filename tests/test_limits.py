"""The work check, and how a message shows its values."""

from fractions import Fraction
from pathlib import Path

import pytest

from fraczeta.errors import MAX_SHOWN_TEXT, CapacityError, InputError, int_text, shown, usage_text
from fraczeta.limits import check_work


@pytest.mark.parametrize("k", [4301, 4302, 5000])
def test_int_text_gives_an_unprintable_integer_its_exact_digit_count(k):
    assert int_text(10**k - 1) == f"a {k}-digit number"
    assert int_text(10**k) == f"a {k + 1}-digit number"
    assert int_text(-(10**k)) == f"a negative {k + 1}-digit number"


def test_int_text_prints_an_integer_python_can_print():
    assert int_text(10**40 - 1) == "9" * 40
    assert int_text(-(10**40 - 1)) == "-" + "9" * 40
    assert int_text(10**40) == "a 41-digit number"
    assert int_text(10**4299) == "a 4300-digit number"
    assert int_text(-12) == "-12"


def test_check_work_fills_its_message_in_only_when_it_fails():
    check_work(3, 3, "{missing} is never formatted")
    with pytest.raises(CapacityError, match=r"^stage 2 of 'x\{y\}' has 5 intervals, above the cap 3$"):
        check_work(5, 3, "stage {depth} of '{label}' has {amount} intervals", depth=2, label="x{y}")
    with pytest.raises(CapacityError, match="^a 8601-digit number items, above the cap 1$"):
        check_work(10**8600, 1, "{amount} items")


def test_a_fraction_shows_its_numerator_and_denominator_by_the_integer_rule():
    assert shown(Fraction(-3, 4)) == "-3/4"
    assert shown(Fraction(7)) == "7"
    assert shown(Fraction(1, 10**400)) == "1/a 401-digit number"
    assert shown(Fraction(-(10**5000), 3)) == "a negative 5001-digit number/3"


def test_a_float_keeps_its_format_spec_and_a_text_is_bounded():
    assert str(InputError("q = {q:.2f}, got {q!r}", q=0.125)) == "q = 0.12, got 0.125"
    assert shown(True) == "True"
    assert shown("mod" + "9" * 41 + "x" + "1" * 40) == "mod<a 41-digit number>x" + "1" * 40
    assert shown("x" * MAX_SHOWN_TEXT) == "x" * MAX_SHOWN_TEXT
    assert shown("y" * 5000) == "y" * MAX_SHOWN_TEXT + "... (5000 characters)"
    assert str(InputError("cannot parse {text!r}", text="a'" * 3)) == "cannot parse \"a'a'a'\""


def test_a_path_and_an_error_are_shown_whole():
    exc = InputError("depth {depth} of '{label}'", depth=10**50, label="x{y}" + "z" * 100)
    assert str(exc).startswith("depth a 51-digit number of 'x{y}zz")
    assert str(InputError("{error}; note", error=exc)) == f"{exc}; note"
    path = Path("d" * 100, "f" + "9" * 50)
    assert str(InputError("cannot read {p}", p=path)) == f"cannot read {path}"


def test_a_text_is_bounded_as_its_repr_prints_it():
    assert shown("\x01" * (MAX_SHOWN_TEXT // 4)) == "\x01" * (MAX_SHOWN_TEXT // 4)
    assert shown("\x01" * (MAX_SHOWN_TEXT // 4 + 1)) == "\x01" * (MAX_SHOWN_TEXT // 4) + "... (21 characters)"
    message = str(InputError("cannot parse {text!r}", text="\x01" * 4000))
    assert message == "cannot parse '" + "\\x01" * (MAX_SHOWN_TEXT // 4) + "... (4000 characters)'"


def test_a_usage_message_is_one_text_without_its_choices():
    assert usage_text("argument --mode: invalid choice: 'bad' (choose from 'as-is', 'random')") == (
        "argument --mode: invalid choice: 'bad'"
    )
    assert usage_text("argument --depth: invalid int value: '-" + "9" * 5000 + "'") == (
        "argument --depth: invalid int value: '-<a 5000-digit number>'"
    )
    long = "unrecognized arguments: " + "x" * 4000
    assert usage_text(long) == long[:MAX_SHOWN_TEXT] + f"... ({len(long)} characters)"
    assert usage_text("the following arguments are required: --depth") == (
        "the following arguments are required: --depth"
    )


def test_a_usage_message_shows_an_echoed_text_on_its_own():
    text = "x" * 4000
    message = f"argument --tol: invalid float value: {text!r}"
    shown_alone = f"argument --tol: invalid float value: '{'x' * MAX_SHOWN_TEXT}... (4000 characters)'"
    assert usage_text(message, ["--tol", text, "1"]) == shown_alone
    # a message that echoes none of the texts given is shown as one text
    assert usage_text(message, ["--tol"]) == message[:MAX_SHOWN_TEXT] + f"... ({len(message)} characters)"
