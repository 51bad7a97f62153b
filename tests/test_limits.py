"""The work check and how its messages show integers."""

import pytest

from fraczeta.errors import CapacityError
from fraczeta.limits import check_work, int_text


@pytest.mark.parametrize("k", [4301, 4302, 5000])
def test_int_text_gives_an_unprintable_integer_its_exact_digit_count(k):
    assert int_text(10**k - 1) == f"a {k}-digit number"
    assert int_text(10**k) == f"a {k + 1}-digit number"
    assert int_text(-(10**k)) == f"a {k + 1}-digit number"


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
