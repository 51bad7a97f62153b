"""Euler-Maclaurin zeta, Gamma, and the functional-equation residual."""

import json
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraczeta.zeta as zeta_module
from fraczeta.cli import main
from fraczeta.errors import CapacityError, DomainError, InputError, PoleError
from fraczeta.limits import (
    MAX_PRECISION_DIGITS,
    MAX_TEXT_EXPONENT,
    MAX_ZETA_TERMS,
    fraction_from_text,
)
from fraczeta.zeta import (
    _GUARD,
    MAX_CORRECTION_K,
    MAX_ZETA_S,
    _bernoulli_coeff,
    _log_int,
    _power,
    certified_digits,
    default_correction_K,
    functional_equation_residual,
    gamma_real,
    zeta_euler_maclaurin,
)

# 36 decimals as printed in the appendix-style reference computation
ZETA_HALF_REFERENCE = "-1.460354508809586812889499152515440424"


def as_mpf(text, dps=60):
    with mp.workdps(dps):
        return mp.mpf(text)


class TestFractionFromText:
    @pytest.mark.parametrize(
        "text,value",
        [("2.5E-3", Fraction(1, 400)), ("-1/3", Fraction(-1, 3)), (" 7 ", Fraction(7)),
         (f"1e{MAX_TEXT_EXPONENT}", Fraction(10**MAX_TEXT_EXPONENT)),
         (f"1e-{MAX_TEXT_EXPONENT}", Fraction(1, 10**MAX_TEXT_EXPONENT)),
         ("1e0001000", Fraction(10**1000))],
    )
    def test_matches_fraction(self, text, value):
        assert fraction_from_text(text) == value

    @pytest.mark.parametrize(
        "text", [f"1e{MAX_TEXT_EXPONENT + 1}", "1e-9999999", "1E+9999999999", "1e1_0000000", "x"]
    )
    def test_rejects_large_exponents_and_garbage(self, text):
        with pytest.raises(ValueError):
            fraction_from_text(text)


def bernoulli_numbers(upto):
    """Exact B_0..B_upto (B_1 = -1/2), as mpmath gives the B_2k that the correction terms read."""
    return [Fraction(*mp.bernfrac(k)) for k in range(upto + 1)]


class TestBernoulli:
    def test_known_values(self):
        table = bernoulli_numbers(12)
        assert table[0] == 1
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[4] == Fraction(-1, 30)
        assert table[12] == Fraction(-691, 2730)

    def test_odd_entries_vanish(self):
        table = bernoulli_numbers(13)
        assert all(table[k] == 0 for k in range(3, 14, 2))

    def test_defining_recurrence(self):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for every m >= 1
        table = bernoulli_numbers(62)
        assert len(table) == 63
        for m in range(1, 63):
            assert sum(math.comb(m + 1, j) * table[j] for j in range(m + 1)) == 0, m


class TestZeta:
    def test_half_matches_reference_digits(self):
        zv = zeta_euler_maclaurin(Fraction(1, 2), 10_000, 10, 50)
        with mp.workdps(60):
            diff = abs(zv.value - as_mpf(ZETA_HALF_REFERENCE))
        assert diff < 1e-11  # >= 12 significant digits

    def test_two_matches_pi_squared_over_six(self):
        zv = zeta_euler_maclaurin(2, 2000, 10, 50)
        with mp.workdps(60):
            diff = abs(zv.value - mp.pi**2 / 6)
        assert diff < 1e-12

    def test_two_thirds_cross_parameterization_oracle(self):
        # same value from an independent (N, K) choice
        a = zeta_euler_maclaurin(Fraction(2, 3), 2000, 8, 50)
        b = zeta_euler_maclaurin(Fraction(2, 3), 8000, 12, 50)
        with mp.workdps(60):
            assert abs(a.value - b.value) < 1e-12

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2, 3), 2, 3])
    def test_oracle_agreement_across_parameterizations(self, s):
        a = zeta_euler_maclaurin(s, 1000, 8, 50)
        b = zeta_euler_maclaurin(s, 4000, 12, 50)
        with mp.workdps(60):
            assert abs(a.value - b.value) < 1e-12

    def test_sign_at_half(self):
        zv = zeta_euler_maclaurin(Fraction(1, 2), 1000, 10, 50)
        assert zv.value < 0
        assert -zv.value > 0

    def test_convergence_in_terms(self):
        # the 36-digit reference is itself a truncation, so the value error
        # plateaus at the reference's own resolution; the computable
        # truncation bound must still fall strictly
        ref = as_mpf(ZETA_HALF_REFERENCE)
        a = zeta_euler_maclaurin(Fraction(1, 2), 1000, 10, 50)
        b = zeta_euler_maclaurin(Fraction(1, 2), 2000, 10, 50)
        with mp.workdps(60):
            err_a = abs(a.value - ref)
            err_b = abs(b.value - ref)
            assert err_b <= err_a + mp.mpf("1e-40")
        assert b.error_bound < a.error_bound

    def test_error_bound_positive_and_shrinking(self):
        bounds = [
            zeta_euler_maclaurin(Fraction(1, 2), n, 6, 40).error_bound
            for n in (100, 200, 400, 800)
        ]
        assert all(b > 0 for b in bounds)
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            zeta_euler_maclaurin(1, 100, 5, 30)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            zeta_euler_maclaurin(-2, 100, 5, 30)
        with pytest.raises(DomainError):
            zeta_euler_maclaurin(0, 100, 5, 30)

    def test_largest_s_is_evaluated_and_beyond_is_rejected(self):
        assert zeta_euler_maclaurin(MAX_ZETA_S, 50, 4, 30).value == 1
        with pytest.raises(DomainError, match="out of range"):
            zeta_euler_maclaurin(MAX_ZETA_S + Fraction(1, 10**6), 50, 4, 30)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            zeta_euler_maclaurin(2, 1, 5, 30)
        with pytest.raises(InputError):
            zeta_euler_maclaurin(2, 100, 0, 30)
        with pytest.raises(InputError):
            zeta_euler_maclaurin(2, 100, MAX_CORRECTION_K + 1, 30)
        with pytest.raises(InputError):
            zeta_euler_maclaurin(2, 100, 5, 10)


class TestAutomaticTerms:
    """The default (N, K) against the fixed-parameter path and mpmath.zeta."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000).filter(
            lambda s: s != 1
        ),
        st.integers(min_value=20, max_value=400),
    )
    def test_agrees_with_mpmath_to_its_certified_digits(self, s, digits):
        zv = zeta_euler_maclaurin(s, precision_digits=digits)
        assert zv.correction_K == default_correction_K(digits)
        assert zv.certified_digits >= digits
        # the value carries ``digits`` digits, all of them certified
        with mp.workdps(digits + 20):
            ref = mp.zeta(mp.mpf(s.numerator) / s.denominator)
            assert abs(zv.value - ref) <= mp.mpf(10) ** (1 - digits) * abs(ref)
        # N is the smallest cutoff whose bound clears the guard digits at that K
        if zv.terms_N > 2:
            fewer = zeta_euler_maclaurin(s, zv.terms_N - 1, zv.correction_K, digits)
            assert fewer.error_bound >= mp.mpf(10) ** -(digits + _GUARD)

    def test_automatic_K_is_30_up_to_75_digits_and_reaches_the_cap_at_1000(self):
        rule = [default_correction_K(d) for d in range(20, MAX_PRECISION_DIGITS + 1)]
        assert rule[: 75 - 20 + 1] == [30] * 56 and rule[76 - 20] == 31
        assert rule == sorted(rule)
        assert rule[-1] == MAX_CORRECTION_K
        assert zeta_euler_maclaurin(Fraction(1, 2), precision_digits=100).correction_K == 39

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2, 3), Fraction(7, 3), Fraction(37, 10)])
    @pytest.mark.parametrize("digits", [30, 50])
    def test_bit_identical_to_ten_thousand_terms(self, s, digits):
        auto = zeta_euler_maclaurin(s, precision_digits=digits)
        fixed = zeta_euler_maclaurin(s, 10_000, 10, digits)
        assert auto.terms_N < 100
        assert auto.value._mpf_ == fixed.value._mpf_

    def test_coefficient_cache_gives_the_same_bits_cold_or_warm(self):
        def value(digits):
            return zeta_euler_maclaurin(Fraction(2, 3), precision_digits=digits).value._mpf_

        for first, second in ((30, 110), (110, 30)):
            _bernoulli_coeff.cache_clear()
            cold = value(second)
            _bernoulli_coeff.cache_clear()
            value(first)
            assert value(second) == cold

    def test_log_cache_gives_the_same_bits_cold_or_warm(self):
        def value(s, digits):
            return zeta_euler_maclaurin(s, precision_digits=digits).value._mpf_

        for digits in (30, 110):
            _log_int.cache_clear()
            cold = value(Fraction(2, 3), digits)
            value(Fraction(7, 3), digits)  # warms every log the first value used
            zeta_euler_maclaurin(Fraction(7, 3), 3000, 10, digits)  # and evicts them again
            assert value(Fraction(2, 3), digits) == cold

    def test_explicit_pair_wins(self):
        zv = zeta_euler_maclaurin(Fraction(1, 2), 200, 6, 40)
        assert (zv.terms_N, zv.correction_K) == (200, 6)
        # K alone given: N is chosen for that K
        zk = zeta_euler_maclaurin(Fraction(1, 2), correction_K=20, precision_digits=30)
        assert zk.correction_K == 20 and zk.certified_digits >= 30

    def test_certified_digits_rule(self):
        assert certified_digits(mp.mpf("3.4e-85"), 50) == 84
        assert certified_digits(mp.mpf(0), 50) == 50
        zv = zeta_euler_maclaurin(Fraction(1, 2), 100, 2, 50)
        assert zv.certified_digits == int(mp.floor(-mp.log10(zv.error_bound))) < 50

    def test_terms_cap(self, monkeypatch):
        with pytest.raises(CapacityError, match=str(MAX_ZETA_TERMS)):
            zeta_euler_maclaurin(2, MAX_ZETA_TERMS + 1, 4, 30)
        monkeypatch.setattr(zeta_module, "MAX_ZETA_TERMS", 40)
        assert zeta_euler_maclaurin(2, 40, 4, 30).terms_N == 40
        with pytest.raises(CapacityError):
            zeta_euler_maclaurin(2, 41, 4, 30)
        # 50 digits need N = 33 at K = 30 and more at K = 4
        assert zeta_euler_maclaurin(Fraction(1, 2), precision_digits=50).terms_N == 33
        with pytest.raises(CapacityError, match="50 digits needs N = "):
            zeta_euler_maclaurin(Fraction(1, 2), correction_K=4, precision_digits=50)

    def test_automatic_terms_past_the_cap_are_refused_at_once(self):
        # K = 30 given at 300 digits needs about 383,000 terms
        with pytest.raises(CapacityError, match="300 digits needs N = 3.8"):
            zeta_euler_maclaurin(Fraction(1, 2), correction_K=30, precision_digits=300)

    def test_precision_cap(self):
        with pytest.raises(CapacityError, match=str(MAX_PRECISION_DIGITS)):
            zeta_euler_maclaurin(2, 50, 4, MAX_PRECISION_DIGITS + 1)


class TestPower:
    """``_power`` against ``mp.power``, which the sum called for each term before."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.one_of(
            st.integers(min_value=-80, max_value=80).map(Fraction),  # exponent >= 0
            st.integers(min_value=-80, max_value=80).map(lambda k: Fraction(2 * k + 1, 2)),  # exactly -1
            st.fractions(min_value=-80, max_value=80, max_denominator=1000),  # mostly below -1
        ),
        st.sampled_from([20, 30, 50, 100, 300, 1000]),
    )
    @example(1, Fraction(-7, 3), 50)
    @example(1, Fraction(-1, 2), 50)
    @example(12, Fraction(3), 20)
    @example(12, Fraction(-5, 2), 20)
    @example(99, Fraction(-1, 1000), 100)
    def test_is_mp_power_bit_for_bit(self, n, t, digits):
        with mp.workdps(digits + _GUARD):
            t_mp = mp.mpf(t.numerator) / t.denominator
            assert _power(n, t_mp._mpf_, mp.mp.prec) == mp.power(n, t_mp)._mpf_


def reference_zeta(s, terms_N, correction_K, digits):
    """The value the sum gave when each power was an ``mp.power`` call, as a raw mpf."""
    with mp.workdps(digits + _GUARD):
        s_mp = mp.mpf(s.numerator) / s.denominator
        n_mp = mp.mpf(terms_N)
        total = mp.mpf(0)
        for n in range(1, terms_N):
            total += mp.power(n, -s_mp)
        total += mp.power(n_mp, 1 - s_mp) / (s_mp - 1)
        total += mp.power(n_mp, -s_mp) / 2
        rising = s_mp
        for k in range(1, correction_K + 1):
            total += _bernoulli_coeff(k, mp.mp.prec) * rising * mp.power(n_mp, -s_mp - 2 * k + 1)
            rising *= (s_mp + 2 * k - 1) * (s_mp + 2 * k)
    with mp.workdps(digits):
        return (+total)._mpf_


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=20, max_denominator=1000).filter(lambda s: s != 1),
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=60),
    st.sampled_from([20, 50, 100, 300]),
)
@example(Fraction(1, 2), 215, 30, 100)
@example(Fraction(19, 2), 40, 12, 50)
def test_sum_is_the_mp_power_sum_bit_for_bit(s, terms_N, correction_K, digits):
    zv = zeta_euler_maclaurin(s, terms_N, correction_K, digits)
    assert zv.value._mpf_ == reference_zeta(s, terms_N, correction_K, digits)


def printed_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["result"]


def agrees_to_every_printed_digit(text, ref):
    """``text`` and ``ref`` differ by less than one unit of ``text``'s last significant digit."""
    digits = len(text.lstrip("-").replace(".", "").lstrip("0"))
    with mp.workdps(digits + 20):
        last = mp.mpf(10) ** (mp.floor(mp.log10(abs(ref))) + 1 - digits)
        return digits > 0 and abs(mp.mpf(text) - ref) < last


class TestPrecisionCap:
    """Every zeta-based command answers at the precision cap of 1000 digits."""

    def test_zeta_at_1000_digits(self, capsys):
        result = printed_json(capsys, ["zeta", "--s", "7/3", "--digits", str(MAX_PRECISION_DIGITS)])
        assert (result["terms_N"], result["correction_K"]) == (1097, MAX_CORRECTION_K)
        assert len(result["value"].replace(".", "")) == MAX_PRECISION_DIGITS
        with mp.workdps(MAX_PRECISION_DIGITS + 10):
            ref = mp.zeta(mp.mpf(7) / 3)
        assert agrees_to_every_printed_digit(result["value"], ref)

    def test_catalog_and_conservation_at_1000_digits(self, capsys):
        with mp.workdps(MAX_PRECISION_DIGITS + 10):
            ref = mp.zeta(mp.mpf(1) / 2)
            minus_ref = -ref
        iotas = [e["iota"] for e in printed_json(capsys, ["catalog", "--digits", str(MAX_PRECISION_DIGITS)])]
        assert {i[0] for i in iotas if i != "0.0"} == {"1", "-"}
        for iota in iotas:
            assert iota == "0.0" or agrees_to_every_printed_digit(iota, ref if iota[0] == "-" else minus_ref)
        report = printed_json(capsys, ["conservation", "--digits", str(MAX_PRECISION_DIGITS)])
        assert agrees_to_every_printed_digit(report["zeta"]["value"], ref)
        assert agrees_to_every_printed_digit(report["iota_pess"], minus_ref)

    def test_axioms_at_1000_digits(self, capsys):
        assert main(["axioms", "--digits", str(MAX_PRECISION_DIGITS)]) == 0


class TestGamma:
    def test_gamma_one(self):
        assert abs(gamma_real(1) - 1) < 1e-40

    def test_gamma_half_is_sqrt_pi(self):
        with mp.workdps(60):
            assert abs(gamma_real(Fraction(1, 2)) - mp.sqrt(mp.pi)) < 1e-40

    def test_gamma_five_is_24(self):
        assert abs(gamma_real(5) - 24) < 1e-38

    @pytest.mark.parametrize("x", ["0.5", "1.3", "2.7"])
    def test_recurrence(self, x):
        with mp.workdps(60):
            g = gamma_real(x)
            g1 = gamma_real(Fraction(x) + 1)
            assert abs(g1 - Fraction(x) * g) / g1 < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 10**6), max_value=1000, max_denominator=10**6),
        st.sampled_from([20, 30, 50, 100]),
    )
    def test_recurrence_to_all_but_one_digit(self, x, digits):
        g = gamma_real(x, digits)
        g1 = gamma_real(x + 1, digits)
        with mp.workdps(digits + 10):
            rel = abs(g1 - mp.mpf(x.numerator) / x.denominator * g) / g1
        assert rel < mp.mpf(10) ** -(digits - 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            gamma_real(0)
        with pytest.raises(DomainError):
            gamma_real(-3)

    def test_precision_below_the_minimum_is_refused(self):
        with pytest.raises(InputError, match="^precision_digits must be >= 20, got 19$"):
            gamma_real(Fraction(1, 3), 19)

    def test_precision_above_the_cap_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=str(MAX_PRECISION_DIGITS)):
            gamma_real(Fraction(1, 3), MAX_PRECISION_DIGITS + 1)
        assert time.perf_counter() - start < 0.1


class TestFunctionalEquation:
    @pytest.mark.parametrize("s", ["0.3", "0.5", "0.7"])
    def test_residual_small(self, s):
        assert functional_equation_residual(s, 2000, 8, 50) < 1e-10

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            functional_equation_residual(Fraction(3, 2))
