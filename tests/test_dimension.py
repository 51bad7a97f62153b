"""Similarity dimension, box counting, regression fit, multifractal spectrum."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraczeta import dimension
from fraczeta.dimension import (
    aligned_level,
    box_count,
    box_dimension_fit,
    multifractal_spectrum,
    similarity_dimension,
)
from fraczeta.errors import CapacityError, InputError
from fraczeta.grids import (
    GeneralIfsSpec,
    GridSpec,
    IfsMap,
    StageSet,
    build_stage,
    ifs_of_grid,
    make_named_spec,
    make_pess_spec,
    make_zf_spec,
)

F = Fraction


def brute_force_box_count(stage, eps: Fraction) -> int:
    """Independent oracle: test every grid box for positive-length overlap."""
    items = list(stage.intervals())
    boxes = 0
    j = 0
    top = max(hi for _, hi in items)
    while F(j) * eps < top:
        lo_box, hi_box = j * eps, (j + 1) * eps
        if any(min(hi, hi_box) > max(lo, lo_box) for lo, hi in items):
            boxes += 1
        j += 1
    return boxes


# brute_force_box_count tests every box against every interval, so a drawn
# case keeps interval count times the finest scale's box count below this
MAX_BRUTE_FORCE_PAIRS = 20_000


@st.composite
def box_cases(draw):
    """A stage and a rational eps for comparing box_count with the brute force.

    The spec is constant or per-level, base 2-12, at depth 0-7 (lower where
    base**(depth+1) boxes would exceed the brute-force budget).  eps is aligned
    (b**-k for k from 0 to depth+1), non-aligned in [b**-depth, 1], above 1,
    or non-aligned below b**-depth, down to b**-(depth+1).
    """
    base = draw(st.integers(2, 12))
    top = max(d for d in range(8) if base ** (d + 1) <= MAX_BRUTE_FORCE_PAIRS)
    depth = draw(st.integers(0, top))
    size = base - 1
    while depth and size**depth * base ** (depth + 1) > MAX_BRUTE_FORCE_PAIRS:
        size -= 1
    retained = st.lists(st.integers(0, base - 1), min_size=1, max_size=size, unique=True)
    if draw(st.booleans()):
        spec = GridSpec(base=base, label="constant", constant=tuple(draw(retained)))
    else:
        levels = draw(st.lists(retained, min_size=max(depth, 1), max_size=depth + 2))
        spec = GridSpec(base=base, label="per-level", per_level=tuple(map(tuple, levels)))
    cell = F(1, base**depth)
    fine = base ** (depth + 2)
    eps = draw(st.one_of(
        st.integers(0, depth + 1).map(lambda k: F(1, base**k)),
        st.fractions(min_value=cell, max_value=1, max_denominator=fine),
        st.builds(lambda n, d: 1 + F(n, d), st.integers(1, 240), st.integers(1, 60)),
        st.fractions(min_value=cell / base, max_value=cell, max_denominator=fine),
    ))
    return build_stage(spec, depth), eps


def reference_box_count(stage, eps: Fraction) -> int:
    """The interval loop that counted every non-aligned scale before the digit-tree descent."""
    p, q = eps.numerator, eps.denominator
    count, last = 0, -1
    for left, right in stage.intervals():
        j_lo = max(left.numerator * q // (left.denominator * p), last + 1)
        j_hi = -(-right.numerator * q // (right.denominator * p)) - 1
        if j_hi >= j_lo:
            count += j_hi - j_lo + 1
            last = j_hi
    return count


# the reference loop builds every interval as Fractions, so a drawn stage
# holds at most about this many
MAX_REFERENCE_INTERVALS = 8192


@st.composite
def descent_cases(draw):
    """A stage of up to MAX_REFERENCE_INTERVALS intervals, past the brute force's budget, and eps in [b**-depth, 2].

    The spec is constant, per-level (where any level may keep a single
    digit) or a ``make_zf_spec`` one, base 2-12, depth 0-14.  eps is f / b**k
    for a level k and a fraction f in [1, b] ([1, 2] at k = 0), so every
    level's scales are drawn.
    """
    kind = draw(st.sampled_from(["constant", "per-level", "zf"]))
    base = 4 if kind == "zf" else draw(st.integers(2, 12))
    depth = draw(st.integers(0, 13 if kind == "zf" else 14))
    if kind == "zf":
        spec = make_zf_spec(draw(st.lists(st.integers(0, 3), min_size=max(depth, 1), max_size=depth + 2)))
    elif kind == "constant":
        top = max(s for s in range(1, base) if s**depth <= MAX_REFERENCE_INTERVALS)
        size = draw(st.integers(1, top))
        digits = draw(st.lists(st.integers(0, base - 1), min_size=size, max_size=size, unique=True))
        spec = GridSpec(base=base, label="constant", constant=tuple(digits))
    else:
        levels, count = [], 1
        for _ in range(depth + 1):  # one level past the stage, unused
            size = draw(st.integers(1, max(1, min(base - 1, MAX_REFERENCE_INTERVALS // count))))
            levels.append(tuple(draw(st.lists(st.integers(0, base - 1), min_size=size, max_size=size, unique=True))))
            count *= size
        spec = GridSpec(base=base, label="per-level", per_level=tuple(levels))
    k = draw(st.integers(0, depth))
    f = draw(st.fractions(min_value=1, max_value=2 if k == 0 else base, max_denominator=10**4))
    return build_stage(spec, depth), f / base**k


class TestSimilarityDimension:
    def test_pess_half(self):
        assert abs(similarity_dimension([F(1, 4), F(1, 4)]).value - 0.5) < 1e-12

    def test_cantor13_third(self):
        est = similarity_dimension([F(1, 8), F(1, 8)])
        assert abs(est.value - 1 / 3) < 1e-12

    def test_unequal_ratios_golden_oracle(self):
        # x + x^2 = 1 with x = (1/2)^s, so x is the golden section
        x = (math.sqrt(5) - 1) / 2
        expected = math.log(1 / x) / math.log(2)
        est = similarity_dimension([F(1, 2), F(1, 4)])
        assert abs(est.value - expected) < 1e-12
        assert est.residual < 1e-12

    def test_single_ratio_is_zero(self):
        assert similarity_dimension([F(1, 3)]).value == 0.0

    def test_closed_form_agrees_with_bisection(self):
        rng = random.Random(7)
        for _ in range(50):
            r = F(rng.randint(1, 40), 41)
            n = rng.randint(2, 9)
            est = similarity_dimension([r] * n)
            closed = math.log(n) / math.log(1 / float(r))
            assert abs(est.value - closed) < 1e-12

    @pytest.mark.parametrize(
        "ratio,n",
        [(F("0.99"), 7), (F("0.999999"), 2), (F("0.999999"), 5), (1 - F(1, 10**10), 2), (1 - F(1, 10**10), 3)],
    )
    def test_equal_ratios_near_one_match_mpmath(self, ratio, n):
        # dimensions from 193 to 10^10: the closed form must keep the digits of 1 - r,
        # and the bisection must agree with it to a relative tolerance
        with mp.workdps(40):
            expected = float(mp.log(n) / -mp.log(mp.mpf(float(ratio))))
        assert similarity_dimension([ratio] * n).value == pytest.approx(expected, rel=1e-15)

    def test_monotone_in_ratio(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rng.uniform(0.05, 0.9)
            bump = rng.uniform(0.01, 0.95 - a) if a < 0.94 else 0.01
            lo = similarity_dimension([F(a).limit_denominator(10**6)] * 2).value
            hi = similarity_dimension(
                [F(min(a + bump, 0.95)).limit_denominator(10**6)] * 2
            ).value
            assert hi > lo

    def test_input_validation(self):
        with pytest.raises(InputError):
            similarity_dimension([])
        with pytest.raises(InputError):
            similarity_dimension([F(1, 2), F(3, 2)])
        with pytest.raises(InputError):
            similarity_dimension([F(0)])

    def test_a_ratio_that_rounds_to_one_is_refused(self):
        near_one = F(10**20 - 1, 10**20)
        message = "ratio 99999999999999999999/100000000000000000000 leaves the double range: it rounds to 1"
        with pytest.raises(InputError, match=f"^{message}$"):
            similarity_dimension([near_one, F(1, 2)])
        with pytest.raises(InputError, match=f"^{message}$"):
            multifractal_spectrum(GeneralIfsSpec(maps=(IfsMap(near_one, F(0), F(1)),)), [1.0])


class TestBoxCount:
    def test_unit_interval_tenths(self):
        assert box_count(build_stage(make_pess_spec(), 0), F(1, 10)) == 10

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pess_aligned_counts(self, k):
        stage = build_stage(make_pess_spec(), 6)
        assert box_count(stage, F(1, 4**k)) == 2**k

    @pytest.mark.parametrize("k", range(1, 5))
    def test_cantor13_aligned_counts(self, k):
        stage = build_stage(make_named_spec("cantor13"), 4)
        assert box_count(stage, F(1, 8**k)) == 2**k

    def test_grid_exactness_general(self):
        spec = make_named_spec("mod8")
        stage = build_stage(spec, 4)
        for k in range(1, 5):
            assert box_count(stage, F(1, 8**k)) == 4**k

    @pytest.mark.parametrize(
        "name,depth,eps",
        [
            ("pess", 3, F(1, 10)),
            ("pess", 4, F(1, 37)),
            ("cantor13", 2, F(1, 9)),
            ("mod6", 3, F(2, 41)),
            ("classic-cantor", 4, F(1, 20)),
        ],
    )
    def test_against_brute_force_oracle(self, name, depth, eps):
        stage = build_stage(make_named_spec(name), depth)
        assert box_count(stage, eps) == brute_force_box_count(stage, eps)

    @settings(max_examples=300, deadline=None)
    @given(box_cases())
    def test_matches_brute_force_on_random_stages_and_scales(self, case):
        stage, eps = case
        assert box_count(stage, eps) == brute_force_box_count(stage, eps)

    @settings(max_examples=200, deadline=None)
    @given(descent_cases())
    # a one-digit chain converges on 1/3, a box boundary: counted on the leaves
    @example((build_stage(GridSpec(base=4, label="one-digit", constant=(1,)), 14), F(1, 3)))
    # the finest scale the descent takes, and non-aligned scales either side of it
    @example((build_stage(make_pess_spec(), 12), F(1, 4**11)))
    @example((build_stage(make_pess_spec(), 12), F(3, 3 * 4**11 - 1)))
    @example((build_stage(make_pess_spec(), 12), F(3, 3 * 4**11 + 1)))
    def test_matches_the_interval_loop_on_large_stages(self, case):
        stage, eps = case
        assert box_count(stage, eps) == reference_box_count(stage, eps)

    def test_epsilon_validation(self):
        stage = build_stage(make_pess_spec(), 2)
        with pytest.raises(InputError):
            box_count(stage, F(0))
        with pytest.raises(InputError):
            box_count(stage, F(-1, 4))

    @pytest.mark.parametrize(
        "eps,aligned",
        [(F(1, 4**7), True), (F(1), True), (F(1, 4**900), True), (F(1, 2 * 4**7), False),
         (F(2, 4**7), False), (F(1, 4**900 + 1), False), (F(3, 7), False), (F(5, 4**6), False)],
    )
    def test_closed_form_pulls_no_interval(self, monkeypatch, eps, aligned):
        # aligned scales are counted in closed form and coarse ones (eps >= 4^-5,
        # as 3/7 and 5/4^6 are) by the digit-tree descent; leaf-level ones pull every interval
        stage = build_stage(make_pess_spec(), 6)
        pulled = 0
        intervals = StageSet.intervals

        def counted(self):
            nonlocal pulled
            for interval in intervals(self):
                pulled += 1
                yield interval

        monkeypatch.setattr(StageSet, "intervals", counted)
        box_count(stage, eps)
        assert pulled == (0 if aligned or eps >= F(1, 4**5) else stage.interval_count)

    def test_coarse_scale_on_a_deep_stage_pulls_no_interval(self, monkeypatch):
        # 2^40 intervals: only the descent can count this in time
        def refuse(self):
            raise AssertionError("box_count enumerated the stage")

        monkeypatch.setattr(StageSet, "intervals", refuse)
        assert box_count(build_stage(make_pess_spec(), 40), F(1, 3)) == 3

    @pytest.mark.parametrize("base", [2, 3, 4, 7, 10, 10**30])
    def test_aligned_level_finds_every_power(self, base):
        for k in range(0, 400, 7):
            assert aligned_level(F(1, base**k), base) == k
            assert aligned_level(F(1, base**k * (base + 1)), base) is None
            assert aligned_level(F(1, base ** (k + 2) - 1), base) is None
            assert aligned_level(F(base + 1, base**k), base) is None


class TestBoxFit:
    def test_pess_depth12_exact_slope(self):
        stage = build_stage(make_pess_spec(), 12)
        est = box_dimension_fit(stage, [F(1, 4**k) for k in range(1, 13)])
        assert abs(est.value - 0.5) < 1e-12
        assert est.residual > 1 - 1e-12

    def test_classic_cantor_slope(self):
        stage = build_stage(make_named_spec("classic-cantor"), 10)
        est = box_dimension_fit(stage, [F(1, 3**k) for k in range(1, 11)])
        assert abs(est.value - math.log(2) / math.log(3)) < 1e-9

    def test_zf_slope_half_for_any_digits(self):
        rng = random.Random(3)
        digits = [rng.randrange(4) for _ in range(12)]
        stage = build_stage(make_zf_spec(digits), 12)
        est = box_dimension_fit(stage, [F(1, 4**k) for k in range(1, 13)])
        assert abs(est.value - 0.5) < 1e-12

    def test_sample_points_recorded_decreasing(self):
        stage = build_stage(make_pess_spec(), 5)
        est = box_dimension_fit(stage, [F(1, 4), F(1, 16), F(1, 64)])
        eps_values = [eps for eps, _ in est.sample_points]
        assert eps_values == sorted(eps_values, reverse=True)
        counts = [c for _, c in est.sample_points]
        assert counts == sorted(counts)

    def test_needs_three_scales(self):
        stage = build_stage(make_pess_spec(), 4)
        with pytest.raises(InputError):
            box_dimension_fit(stage, [F(1, 4), F(1, 16)])
        with pytest.raises(InputError):
            box_dimension_fit(stage, [F(1, 4), F(1, 4), F(1, 16)])

    @pytest.mark.parametrize(
        "depth,scales,error",
        [
            (3, [F(1, 4), F(1, 16), F(1, 10**999)], InputError),
            (3, [F(1, 4), F(1, 16), F(10**400)], InputError),
            (3, [F(1, 10**18 + 1), F(1, 10**18 + 2), F(1, 10**18 + 3)], InputError),
            (3, [F(0), F(1, 4), F(1, 16)], InputError),
            (3, [F(-1, 2), F(1, 4), F(1, 16)], InputError),
            # 2^20 intervals x 3 non-aligned scales x 1 word
            (20, [F(1, 3), F(1, 5), F(1, 7)], CapacityError),
        ],
        ids=["1/eps overflows", "1/eps underflows", "equal log(1/eps)", "zero", "negative", "work over the cap"],
    )
    def test_scales_are_checked_before_any_box_is_counted(self, monkeypatch, depth, scales, error):
        def spy(stage, eps):
            raise AssertionError(f"box_count called at {eps}")

        monkeypatch.setattr(dimension, "box_count", spy)
        with pytest.raises(error):
            box_dimension_fit(build_stage(make_pess_spec(), depth), scales)


def weighted_pess_ifs():
    return ifs_of_grid(make_pess_spec(), weights=[F(1, 2), F(1, 2)])


class TestMultifractal:
    def test_pess_collapses_to_single_point(self):
        q_grid = [q / 2 for q in range(-10, 11)]
        for p in multifractal_spectrum(weighted_pess_ifs(), q_grid):
            assert abs(p.alpha - 0.5) < 1e-9
            assert abs(p.f - 0.5) < 1e-9
            # closed form tau(q) = (1 - q)/2 for this spec
            assert abs(p.tau - (1 - p.q) / 2) < 1e-12

    def test_tau_at_zero_is_similarity_dimension(self):
        ifs = GeneralIfsSpec(
            maps=(
                IfsMap(F(1, 3), F(0), F(1, 4)),
                IfsMap(F(1, 5), F(1, 2), F(3, 4)),
            )
        )
        (point,) = multifractal_spectrum(ifs, [0.0])
        expected = similarity_dimension([F(1, 3), F(1, 5)]).value
        assert abs(point.tau - expected) < 1e-10

    def test_tau_at_one_is_zero(self):
        ifs = GeneralIfsSpec(
            maps=(
                IfsMap(F(1, 3), F(0), F(2, 5)),
                IfsMap(F(1, 6), F(1, 2), F(3, 5)),
            )
        )
        (point,) = multifractal_spectrum(ifs, [1.0])
        assert abs(point.tau) < 1e-9

    def test_degenerate_spectrum_for_equal_weights_and_ratios(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            r = F(1, rng.randint(n + 1, 12))
            ifs = GeneralIfsSpec(
                maps=tuple(IfsMap(r, F(i, n + 1), F(1, n)) for i in range(n))
            )
            s = similarity_dimension([r] * n).value
            for p in multifractal_spectrum(ifs, [-3.0, -1.0, 0.5, 2.0, 4.0]):
                assert abs(p.alpha - s) < 1e-9
                assert abs(p.f - s) < 1e-9

    def test_tau_convex_on_grid(self):
        ifs = GeneralIfsSpec(
            maps=(
                IfsMap(F(1, 4), F(0), F(1, 5)),
                IfsMap(F(1, 8), F(1, 2), F(4, 5)),
            )
        )
        q_grid = [q / 4 for q in range(-20, 21)]
        taus = [p.tau for p in multifractal_spectrum(ifs, q_grid)]
        for a, b, c in zip(taus, taus[1:], taus[2:]):
            assert a - 2 * b + c >= -1e-9

    def test_weights_required(self):
        with pytest.raises(InputError):
            multifractal_spectrum(ifs_of_grid(make_pess_spec()), [0.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 11).flatmap(lambda n: st.builds(F, st.just(n), st.integers(n + 1, 12))),
                st.integers(1, 20),
            ),
            min_size=2,
            max_size=4,
        ),
        st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    )
    def test_matches_findroot_tau_and_differentiated_alpha(self, maps, q_grid):
        total = sum(w for _, w in maps)
        ifs = GeneralIfsSpec(maps=tuple(IfsMap(r, F(0), F(w, total)) for r, w in maps))
        with mp.workdps(40):
            probs = [mp.mpf(w) / total for _, w in maps]
            ratios = [mp.mpf(r.numerator) / r.denominator for r, _ in maps]
            for point in multifractal_spectrum(ifs, q_grid):

                def tau(q, start=point.tau):
                    return mp.findroot(
                        lambda t: mp.fsum(p**q * r**t for p, r in zip(probs, ratios)) - 1, start
                    )

                assert abs(point.tau - tau(point.q)) < 1e-12
                assert abs(point.alpha + mp.diff(tau, point.q)) < 1e-12
                assert point.f == point.q * point.alpha + point.tau
