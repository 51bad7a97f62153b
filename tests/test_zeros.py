"""Zero-file parsing, digitization, reordering, and digit statistics."""

import random
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraczeta.errors import CapacityError, FraczetaError, InputError, ParseError
from fraczeta.zeros import (
    ZeroTable,
    _data_lines,
    digit_stats,
    digitize,
    parse_zero_file,
    reorder,
    reorder_external_weights,
)
from fraczeta.limits import MAX_PRECISION_DIGITS, MAX_TEXT_EXPONENT

GAMMA_1 = "14.134725141734693"
GAMMA_2 = "21.022039638771555"


def write_zero_file(tmp_path, text, name="zeros.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_two_ordinates(self, tmp_path):
        table = parse_zero_file(write_zero_file(tmp_path, f"{GAMMA_1}\n{GAMMA_2}\n"))
        assert len(table) == 2
        assert table.gammas[0] < table.gammas[1]
        assert table.gammas[0] == Fraction(14134725141734693, 10**15)
        assert table.ordering == "standard"
        assert table.ordering_warning is None

    def test_comments_skipped(self, tmp_path):
        table = parse_zero_file(
            write_zero_file(tmp_path, f"# header line\n{GAMMA_1}\n")
        )
        assert len(table) == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_zero_file(tmp_path, f"{GAMMA_1}\n{GAMMA_2}\nabc\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_zero_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_zero_file(tmp_path, "# only a comment\n")
        with pytest.raises(InputError):
            parse_zero_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            parse_zero_file(tmp_path / "absent.txt")

    def test_exponent_bound(self, tmp_path):
        path = write_zero_file(tmp_path, f"{GAMMA_1}\n1E+{MAX_TEXT_EXPONENT}\n")
        assert parse_zero_file(path).gammas[1] == 10**MAX_TEXT_EXPONENT
        path.write_text(f"{GAMMA_1}\n# 1e999999\n1e{MAX_TEXT_EXPONENT + 1}\n")
        with pytest.raises(ParseError, match="line 3: decimal exponent"):
            parse_zero_file(path)

    def test_nonpositive_value_rejected(self, tmp_path):
        path = write_zero_file(tmp_path, "-3.5\n")
        with pytest.raises(InputError):
            parse_zero_file(path)

    def test_unsorted_input_recorded(self, tmp_path):
        table = parse_zero_file(write_zero_file(tmp_path, f"{GAMMA_2}\n{GAMMA_1}\n"))
        assert table.ordering_warning is not None

    def test_fixture_file(self, zero_table):
        assert len(zero_table) == 100
        assert zero_table.ordering_warning is None


def reference_table(path):
    """The ZeroTable the former parser built: every check on the ``Fraction``."""
    gammas, strings = [], []
    for lineno, raw, token in _data_lines(path, "zero"):
        try:
            value = Fraction(Decimal(token))
        except (InvalidOperation, ValueError, OverflowError) as exc:
            raise ParseError("{p}: line {n}: not a decimal number: {raw!r}", p=path, n=lineno, raw=raw) from exc
        if value <= 0:
            raise InputError("{p}: line {n}: ordinate must be positive, got {token}", p=path, n=lineno, token=token)
        gammas.append(value)
        strings.append(token)
    if not gammas:
        raise InputError("{p}: no zero ordinates found", p=path)
    warning = None
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        warning = "ordinates are not strictly increasing; standard ordering not verified"
    return ZeroTable(gammas=tuple(gammas), gamma_strings=tuple(strings), ordering="standard",
                     ordering_warning=warning)


def parse_outcome(parse, path):
    try:
        table = parse(path)
    except FraczetaError as exc:
        return type(exc), str(exc)
    assert all(type(g) is Fraction for g in table.gammas)
    return table.gammas, table.gamma_strings, table.ordering, table.ordering_warning


digit_runs = st.text("0123456789", min_size=1, max_size=4)
# decimals as a zero file may spell them: signs, '_' between digits, exponents,
# trailing zeros that make equal values look different
decimal_tokens = st.builds(
    lambda sign, whole, frac, exp: sign + "_".join(whole) + frac + exp,
    st.sampled_from(["", "", "", "", "", "+", "+", "-"]),
    st.lists(digit_runs, min_size=0, max_size=2).flatmap(
        lambda runs: st.sampled_from("123456789").map(lambda lead: [lead + "".join(runs[:1]), *runs[1:]])),
    st.one_of(st.just(""), st.builds(lambda d: "." + d, st.text("0123456789", max_size=6))),
    st.one_of(st.just(""), st.builds(lambda e, sign, n: f"{e}{sign}{n}", st.sampled_from("eE"),
                                     st.sampled_from(["", "+", "-"]), st.integers(0, 40))),
)
zero_file_lines = st.one_of(
    decimal_tokens,
    decimal_tokens,
    decimal_tokens.map(lambda t: f"  {t}\t"),
    st.sampled_from(["0", "-0", "0.000", "nan", "inf", "-inf", "1__2", "_1", "1e", "abc", "# comment", "", "007.5", "1.0",
                     "1.00", "10", "1e1"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(zero_file_lines, min_size=0, max_size=12))
@example(["14.5", "+14.50", "1_4.6", "1.46e1", "2E+1"])
@example(["3", "2", "1"])
@example(["5", "-0"])
@example(["5", "nan"])
def test_parse_matches_the_fraction_reference(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("zeros") / "zeros.txt"
    path.write_text("\n".join(lines) + "\n")
    assert parse_outcome(parse_zero_file, path) == parse_outcome(reference_table, path)


class TestDigitize:
    def test_first_zero_against_high_precision_oracle(self, zero_table):
        seq = digitize(zero_table, precision_digits=50, boundary_tol=1e-4)
        entry = seq.entries[0]
        with mp.workdps(80):
            gamma = mp.mpf(GAMMA_1 + "790457251983562")  # more digits of the ordinate
            x = gamma / (2 * mp.pi)
            t_oracle = x - mp.floor(x)
            assert abs(entry.t - t_oracle) < mp.mpf("1e-25")
        assert entry.a == 0
        # 4t sits 0.00156 below 1: near the cell edge but outside tol 1e-4
        assert entry.boundary_flag is False

    def test_synthetic_quarter_pi_offset(self, tmp_path):
        # gamma = 2*pi*k + pi/4 lands exactly at t = 1/8
        with mp.workdps(60):
            gamma = mp.nstr(2 * mp.pi * 3 + mp.pi / 4, 45)
        path = tmp_path / "synthetic.txt"
        path.write_text(gamma + "\n")
        seq = digitize(parse_zero_file(path), 50)
        assert seq.entries[0].a == 0
        assert abs(seq.entries[0].t - mp.mpf("0.125")) < mp.mpf("1e-40")

    def test_synthetic_half_turn(self, tmp_path):
        with mp.workdps(60):
            gamma = mp.nstr(2 * mp.pi * 5 + mp.pi, 45)
        path = tmp_path / "synthetic.txt"
        path.write_text(gamma + "\n")
        seq = digitize(parse_zero_file(path), 50)
        assert seq.entries[0].a == 2
        assert abs(seq.entries[0].t - mp.mpf("0.5")) < mp.mpf("1e-40")

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_boundary_tol_must_be_finite_and_positive(self, zero_table, tol):
        with pytest.raises(InputError, match="finite and positive"):
            digitize(zero_table, precision_digits=50, boundary_tol=tol)

    def test_all_digits_in_range_and_floor_consistent(self, zero_digits):
        for e in zero_digits:
            assert e.a in (0, 1, 2, 3)
            assert int(mp.floor(4 * e.t)) == e.a

    def test_precision_stability_40_vs_60(self, zero_table):
        a40 = digitize(zero_table, 40)
        a60 = digitize(zero_table, 60)
        for e40, e60 in zip(a40, a60):
            if not e40.boundary_flag:
                assert e40.a == e60.a

    def test_minimum_precision_enforced(self, zero_table):
        with pytest.raises(InputError):
            digitize(zero_table, 39)

    def test_precision_above_the_cap_is_refused_at_once(self, zero_table):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=str(MAX_PRECISION_DIGITS)):
            digitize(zero_table, MAX_PRECISION_DIGITS + 1)
        assert time.perf_counter() - start < 0.1

    def test_zf_retained_pairs_always_two(self, zero_digits):
        from fraczeta.grids import make_zf_spec

        spec = make_zf_spec(zero_digits)
        for level in range(1, len(zero_digits) + 1):
            assert len(spec.retained_at(level)) == 2


def reference_digits(table, precision_digits, boundary_tol):
    """(t._mpf_, a, flag) per ordinate, by the step-by-step mpmath loop digitize replaced."""
    out = []
    with mp.workdps(precision_digits):
        two_pi = 2 * mp.pi
        for gamma in table.gammas:
            x = mp.mpf(gamma.numerator) / mp.mpf(gamma.denominator) / two_pi
            t = x - mp.floor(x)
            scaled = 4 * t
            a = int(mp.floor(scaled))
            boundary = bool(abs(scaled - mp.nint(scaled)) < boundary_tol)
            if a > 3:  # t rounded up to 1.0 at working precision
                a = 3
                boundary = True
            out.append((t._mpf_, a, boundary))
    return out


def near_quarter_turn(k, j, sign, m):
    """2pi(k + j/4) +- 10^-m to 115 digits: 4t lies within about 10^-m of an integer."""
    with mp.workdps(130):
        return Fraction(mp.nstr(2 * mp.pi * (k + mp.mpf(j) / 4) + sign * mp.mpf(10) ** -m, 115))


with mp.workdps(80):
    # at 40 digits gamma / 2pi rounds to exactly 1 + 1/8, so 4t is 1/2 away from both integers
    EIGHTH_TURN = Fraction(mp.nstr(2 * mp.pi + mp.pi / 4, 60))

ordinates = st.one_of(
    # decimals with more digits than 40-digit working precision holds
    st.builds(lambda n, scale: Fraction(n, 10**scale), st.integers(1, 10**126), st.integers(0, 120)),
    # below one turn: the integer part of gamma / 2pi is 0
    st.fractions(Fraction(1, 10**45), Fraction(6283185307, 10**9), max_denominator=10**45),
    # so large that gamma / 2pi rounds to an integer: t = 0
    st.integers(1, 10**400).map(Fraction),
    st.builds(near_quarter_turn, st.integers(1, 10**6), st.integers(0, 3), st.sampled_from([-1, 1]),
              st.integers(1, 110)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ordinates, min_size=1, max_size=6),
    st.sampled_from([40, 50, 100, 300]),
    st.sampled_from([1e-300, 1e-9, 1e-4, 0.25, 0.5, 0.75]),
)
@example([Fraction(10**60)], 40, 1e-9)  # gamma / 2pi rounds to an integer: t = 0
@example([EIGHTH_TURN], 40, 0.5)
def test_digitize_matches_the_mpmath_reference(gammas, precision_digits, boundary_tol):
    table = ZeroTable(gammas=tuple(gammas), gamma_strings=tuple(map(str, gammas)), ordering="standard")
    seq = digitize(table, precision_digits, boundary_tol)
    got = [(e.t._mpf_, e.a, e.boundary_flag) for e in seq]
    assert got == reference_digits(table, precision_digits, boundary_tol)
    assert all(type(e.a) is int and type(e.boundary_flag) is bool for e in seq)


class TestReorder:
    def test_random_is_deterministic(self, zero_table):
        a = reorder(zero_table, "random", seed=123)
        b = reorder(zero_table, "random", seed=123)
        assert a.gammas == b.gammas
        assert a.ordering == "random(seed=123)"

    def test_different_seeds_differ(self, zero_table):
        a = reorder(zero_table, "random", seed=1)
        b = reorder(zero_table, "random", seed=2)
        assert a.gammas != b.gammas

    def test_standard_restores_ascending(self, zero_table):
        shuffled = reorder(zero_table, "random", seed=99)
        restored = reorder(shuffled, "standard")
        assert restored.gammas == zero_table.gammas
        assert restored.gamma_strings == zero_table.gamma_strings

    def test_single_element_unchanged(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("14.1347251417\n")
        table = parse_zero_file(path)
        assert reorder(table, "random", seed=5).gammas == table.gammas

    def test_unknown_mode_rejected(self, zero_table):
        with pytest.raises(InputError):
            reorder(zero_table, "sideways")

    def test_external_weights(self, tmp_path):
        zeros = tmp_path / "z.txt"
        zeros.write_text("10.5\n20.5\n30.5\n")
        table = parse_zero_file(zeros)
        weights = tmp_path / "w.txt"
        weights.write_text("# idx weight\n1 0.9\n2 0.1\n3 0.5\n")
        out = reorder_external_weights(table, weights)
        assert [str(g) for g in out.gammas] == ["41/2", "61/2", "21/2"]
        assert out.ordering.startswith("external-weights")

    def test_external_weights_must_cover_all(self, tmp_path):
        zeros = tmp_path / "z.txt"
        zeros.write_text("10.5\n20.5\n")
        table = parse_zero_file(zeros)
        weights = tmp_path / "w.txt"
        weights.write_text("1 0.9\n")
        with pytest.raises(InputError):
            reorder_external_weights(table, weights)

    def test_infinite_weight_is_parse_error(self, tmp_path):
        zeros = tmp_path / "z.txt"
        zeros.write_text("10.5\n20.5\n")
        weights = tmp_path / "w.txt"
        weights.write_text("1 0.9\n2 inf\n")
        with pytest.raises(ParseError, match="line 2"):
            reorder_external_weights(parse_zero_file(zeros), weights)

    def test_weight_exponent_bound(self, tmp_path):
        zeros = tmp_path / "z.txt"
        zeros.write_text("10.5\n20.5\n")
        weights = tmp_path / "w.txt"
        weights.write_text(f"1 1e-{MAX_TEXT_EXPONENT}\n2 0.1\n")
        assert reorder_external_weights(parse_zero_file(zeros), weights).gammas[0] == Fraction(21, 2)
        weights.write_text(f"1 0.9\n2 1e-{MAX_TEXT_EXPONENT + 1}\n")
        with pytest.raises(ParseError, match="line 2: decimal exponent"):
            reorder_external_weights(parse_zero_file(zeros), weights)


class TestDigitStats:
    def test_perfect_uniformity(self):
        stats = digit_stats([0, 1, 2, 3, 0, 1, 2, 3])
        assert stats.chi_square == 0.0
        assert stats.reject_at_05 is False
        assert stats.counts == (2, 2, 2, 2)

    def test_all_zeros_rejected(self):
        # O = (8,0,0,0), E = 2: chi2 = (36 + 4 + 4 + 4)/2 = 24
        stats = digit_stats([0] * 8)
        assert stats.chi_square == pytest.approx(24.0)
        assert stats.reject_at_05 is True

    def test_length_validated(self):
        with pytest.raises(InputError):
            digit_stats([0, 1, 2, 3])

    @pytest.mark.parametrize("digits,position", [([0.5, 1, 2, 3, 0, 1, 2, 3], 1), ([0, 1, 2, 3, 0, 1, 2, 3.7], 8)])
    def test_a_non_integer_digit_is_refused(self, digits, position):
        with pytest.raises(InputError, match=f"^digit at position {position} must be an integer"):
            digit_stats(digits)

    def test_permutation_invariance(self, zero_digits):
        base = digit_stats(zero_digits)
        shuffled = list(zero_digits.digits())
        random.Random(17).shuffle(shuffled)
        other = digit_stats(shuffled)
        assert other.counts == base.counts
        assert other.chi_square == base.chi_square

    def test_calibration_under_uniform_digits(self):
        # at the 5% level, ~95 of 100 uniform samples should not reject
        non_rejects = 0
        for seed in range(100):
            rng = random.Random(seed)
            sample = [rng.randrange(4) for _ in range(10_000)]
            if not digit_stats(sample).reject_at_05:
                non_rejects += 1
        assert non_rejects >= 94

    def test_real_zero_digits_report(self, zero_digits):
        stats = digit_stats(zero_digits)
        assert sum(stats.counts) == len(zero_digits)
        assert stats.df == 3
        assert stats.chi_square >= 0
