"""Triple comparison, exact dimension ties, catalog, conservation, axioms."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from fraczeta.cardinality import (
    CATALOG_GRIDS,
    COMPARE_TOL,
    InfoCardinality,
    LogRatio,
    axiom_suite,
    catalog,
    catalog_map,
    compare,
    compare_extended,
    compare_trace,
    conservation_report,
    empty_set_cardinality,
    singleton_cardinality,
)
from fraczeta.dimension import similarity_dimension
from fraczeta.errors import InputError
from fraczeta.grids import ifs_of_grid, make_named_spec

F = Fraction


def triple(alpha, delta, iota, exact=None, vec=None):
    return InfoCardinality(
        alpha=alpha, delta=delta, iota=iota, delta_exact=exact, dim_vector=vec
    )


class TestLogRatio:
    def test_reduces_to_rational_for_common_base(self):
        assert LogRatio(2, 4).as_fraction() == F(1, 2)
        assert LogRatio(2, 8).as_fraction() == F(1, 3)
        assert LogRatio(4, 8).as_fraction() == F(2, 3)
        assert LogRatio(8, 4).as_fraction() == F(3, 2)

    def test_irrational_forms_have_no_fraction(self):
        assert LogRatio(2, 3).as_fraction() is None
        assert LogRatio(2, 6).as_fraction() is None

    def test_canonical_identifies_equal_values(self):
        assert LogRatio(2, 6).canonical() == LogRatio(4, 36).canonical()
        assert LogRatio(2, 6).canonical() != LogRatio(2, 5).canonical()

    def test_float_value(self):
        assert LogRatio(2, 3).as_float() == pytest.approx(math.log(2) / math.log(3))


class TestCompare:
    def test_pess_beats_cantor13(self):
        entries = catalog_map()
        rel, trace = compare_trace(
            entries["pess"].cardinality, entries["cantor13"].cardinality
        )
        assert rel == "greater"
        assert trace[0]["component"] == "alpha" and trace[0]["relation"] == "equal"
        assert trace[1]["component"] == "delta" and trace[1]["relation"] == "greater"

    def test_unit_interval_beats_pess_on_delta(self):
        entries = catalog_map()
        assert compare(
            entries["unit-interval"].cardinality, entries["pess"].cardinality
        ) == "greater"

    def test_identical_triples_equal(self):
        a = triple(1, 0.5, 1.25)
        assert compare(a, a) == "equal"

    def test_exact_delta_tie_falls_to_iota(self):
        a = triple(1, 0.5, 2.0, exact=LogRatio(2, 4))
        b = triple(1, 0.5, -2.0, exact=LogRatio(4, 16))
        assert compare(a, b) == "greater"
        assert compare(b, a) == "less"

    def test_equal_log_ratios_with_different_bases(self):
        a = triple(1, math.log(2) / math.log(6), 0.0, exact=LogRatio(2, 6))
        b = triple(1, math.log(4) / math.log(36), 1.0, exact=LogRatio(4, 36))
        # delta ties exactly despite float jitter, iota decides
        assert compare(a, b) == "less"

    def test_total_order_properties_random_triples(self):
        rng = random.Random(2026)

        def random_triple():
            return triple(
                rng.randint(0, 1),
                rng.choice([0.0, 1 / 3, 0.5, rng.random()]),
                rng.choice([0.0, 1.46, -1.46, rng.uniform(-2, 2)]),
            )

        pool = [random_triple() for _ in range(400)]
        flip = {"less": "greater", "greater": "less", "equal": "equal"}
        for _ in range(2000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab, ba = compare(a, b), compare(b, a)
            assert ba == flip[ab]
            assert compare(a, a) == "equal"
            bc, ac = compare(b, c), compare(a, c)
            if ab == bc or bc == "equal":
                assert ac == ab
            elif ab == "equal":
                assert ac == bc


class TestCompareExtended:
    def test_vector_dominance(self):
        a = triple(1, 0.5, 0.0, vec=(0.5, 0.5))
        b = triple(1, 1 / 3, 5.0, vec=(1 / 3, 1 / 3))
        assert compare_extended(a, b) == "dominates"
        assert compare_extended(b, a) == "dominated"

    def test_equal_everything(self):
        a = triple(1, 0.5, 1.0, vec=(0.5, 0.5))
        assert compare_extended(a, a) == "equal"

    def test_mixed_signs_incomparable(self):
        a = triple(1, 0.5, 0.0, vec=(0.5, 0.25))
        b = triple(1, 1 / 3, 0.0, vec=(1 / 3, 1 / 3))
        assert compare_extended(a, b) == "incomparable"

    def test_reduces_to_compare_for_length_one(self):
        rng = random.Random(31)
        outcomes = {"less": "dominated", "equal": "equal", "greater": "dominates"}
        for _ in range(200):
            a = triple(rng.randint(0, 1), rng.random(), rng.uniform(-2, 2))
            b = triple(rng.randint(0, 1), rng.random(), rng.uniform(-2, 2))
            assert compare_extended(a, b) == outcomes[compare(a, b)]

    def test_length_mismatch_rejected(self):
        a = triple(1, 0.5, 0.0, vec=(0.5, 0.5))
        b = triple(1, 0.5, 0.0, vec=(0.5,))
        with pytest.raises(InputError):
            compare_extended(a, b)

    def test_catalog_extended_comparison(self):
        entries = catalog_map()
        assert compare_extended(
            entries["pess"].cardinality, entries["cantor13"].cardinality
        ) == "dominates"


class TestCatalog:
    def test_expected_rows(self):
        entries = catalog_map()
        pess = entries["pess"].cardinality
        assert pess.alpha == 1
        assert pess.delta == 0.5
        assert abs(float(pess.iota) - 1.46035) < 1e-4
        zf = entries["zf"].cardinality
        assert zf.delta == 0.5
        assert abs(float(zf.iota) + 1.46035) < 1e-4
        assert entries["unit-interval"].cardinality.delta == 1.0
        assert abs(entries["cantor"].cardinality.delta - 0.631) < 1e-3
        tz = entries["trivial-zeros"].cardinality
        assert (tz.alpha, tz.delta, tz.iota) == (0, 0.0, 0.0)

    def test_iota_values_negate_exactly(self):
        entries = catalog_map()
        assert entries["pess"].cardinality.iota + entries["zf"].cardinality.iota == 0

    def test_live_zeta_no_stale_constants(self):
        lo = catalog_map(precision_digits=25)
        hi = catalog_map(precision_digits=50)
        assert lo["pess"].cardinality.iota != hi["pess"].cardinality.iota
        # the perturbation shifts both signed values identically
        assert lo["pess"].cardinality.iota + lo["zf"].cardinality.iota == 0
        assert hi["pess"].cardinality.iota + hi["zf"].cardinality.iota == 0

    def test_grid_entries_match_similarity_dimension(self):
        entries = catalog_map()
        for entry_name, spec_name in CATALOG_GRIDS.items():
            spec = make_named_spec(spec_name)
            est = similarity_dimension(ifs_of_grid(spec).ratios)
            assert abs(entries[entry_name].cardinality.delta - est.value) < 1e-12

    def test_dim_vector_head_matches_delta(self):
        for entry in catalog():
            card = entry.cardinality
            assert abs(card.dim_vector[0] - card.delta) <= COMPARE_TOL

    def test_names_unique(self):
        names = [e.name for e in catalog()]
        assert len(names) == len(set(names))


class TestConservation:
    def test_sum_exactly_zero(self):
        report = conservation_report()
        assert report.total == 0
        assert report.iota_pess > 0
        assert report.iota_zf < 0
        with mp.workdps(60):
            assert report.iota_pess == -report.iota_zf

    def test_values_match_zeta_half(self):
        report = conservation_report()
        assert abs(float(report.iota_pess) - 1.460354508809586) < 1e-12

    def test_caveat_marks_identity_as_definitional(self):
        report = conservation_report()
        assert "definitional" in report.caveat

    def test_digit_stats_attached_when_given(self, zero_digits):
        report = conservation_report(zero_digits=zero_digits)
        assert report.digit_stats is not None
        assert sum(report.digit_stats.counts) == len(zero_digits)


class TestAxioms:
    def test_statuses(self):
        checks = {c.axiom: c for c in axiom_suite()}
        assert checks["A1"].status == "pass"
        assert checks["A4"].status == "pass"
        assert checks["A7"].status == "pass"
        for name in ("A2", "A3", "A5", "A6"):
            assert checks[name].status == "not-assertable"
            assert checks[name].detail

    def test_normalization_helpers(self):
        assert empty_set_cardinality().iota == 0
        assert singleton_cardinality().iota == 0
        assert empty_set_cardinality().alpha == 0


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(InputError):
            triple(2, 0.5, 0.0)

    def test_vector_head_consistency(self):
        with pytest.raises(InputError):
            InfoCardinality(alpha=1, delta=0.5, iota=0.0, dim_vector=(0.4, 0.5))
