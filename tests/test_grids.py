"""Exact construction: retention rules, stages, addresses, IFS maps, self-similarity and exports."""

import contextlib
import io
import itertools
import json
from argparse import Namespace
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraczeta.grids as grids_module
from fraczeta import cli

from fraczeta.errors import (
    AddressError,
    CapacityError,
    InputError,
    UnsupportedStructureError,
)
from fraczeta.grids import (
    Address,
    GeneralIfsSpec,
    GridSpec,
    IfsMap,
    SelfSimilarityReport,
    address_to_point,
    build_stage,
    ifs_of_grid,
    make_named_spec,
    make_pess_spec,
    make_zf_spec,
    self_similarity_check,
    row_blocks,
    stage_header,
    stage_rows,
    stage_to_json,
    write_stage_csv,
)
from fraczeta.limits import DEFAULT_ENUMERATION_CAP

F = Fraction


def materialize(stage, cap=DEFAULT_ENUMERATION_CAP):
    """The stage's intervals as a list, refused past ``cap`` as every enumeration in the package is."""
    stage.check_cap(cap)
    return list(stage.intervals())


def intervals(spec, depth):
    return materialize(build_stage(spec, depth))


# The Fraction-interval IFS step that the integer self-similarity check
# replaced, kept as the reference that checks ifs_of_grid's maps.
def apply_ifs_step(ifs, items):
    """The image of every interval under every map, exactly and without merging."""
    return [(m.ratio * left + m.offset, m.ratio * right + m.offset) for left, right in items for m in ifs.maps]


class TestSpecs:
    def test_pess_spec(self):
        spec = make_pess_spec()
        assert spec.base == 4
        assert spec.constant == (1, 3)
        assert spec.label == "pess"

    def test_pess_stage_one(self):
        assert intervals(make_pess_spec(), 1) == [
            (F(1, 4), F(1, 2)),
            (F(3, 4), F(1)),
        ]

    @pytest.mark.parametrize(
        "name,base,retained",
        [
            ("cantor13", 8, (0, 7)),
            ("classic-cantor", 3, (0, 2)),
            ("mod6", 6, (1, 5)),
            ("mod8", 8, (1, 3, 5, 7)),
        ],
    )
    def test_named_specs(self, name, base, retained):
        spec = make_named_spec(name)
        assert (spec.base, spec.constant) == (base, retained)

    def test_cantor13_keeps_first_and_last_eighth(self):
        assert intervals(make_named_spec("cantor13"), 1) == [
            (F(0), F(1, 8)),
            (F(7, 8), F(1)),
        ]

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(InputError, match="cantor13"):
            make_named_spec("nope")

    def test_retained_set_must_be_strict_subset(self):
        with pytest.raises(InputError):
            GridSpec(base=4, label="bad", constant=(0, 1, 2, 3))
        with pytest.raises(InputError):
            GridSpec(base=4, label="bad", constant=())
        with pytest.raises(InputError):
            GridSpec(base=4, label="bad", constant=(4,))

    @pytest.mark.parametrize(
        "base,constant,message",
        [
            (4, (1.7, 3), "retained digit at all levels must be an integer, got 1.7"),
            (4, (1, "3"), "retained digit at all levels must be an integer, got '3'"),
            (4.0, (1, 3), "base must be an integer, got 4.0"),
        ],
    )
    def test_a_non_integer_digit_or_base_is_refused(self, base, constant, message):
        with pytest.raises(InputError) as exc:
            build_stage(GridSpec(base=base, label="x", constant=constant), 3)
        assert str(exc.value) == message

    def test_numpy_integers_are_integers(self):
        np = pytest.importorskip("numpy")
        spec = GridSpec(base=np.int64(4), label="np", constant=(np.int8(1), np.uint64(3)))
        assert spec == GridSpec(base=4, label="np", constant=(1, 3))
        # a numpy base would overflow base**depth
        assert type(spec.base) is int and build_stage(spec, 40).total_length == F(2**40, 4**40)


class TestZfSpec:
    def test_digit_zero_gives_pair_02(self):
        spec = make_zf_spec([0])
        assert spec.retained_at(1) == (0, 2)

    def test_digit_three_wraps_to_13(self):
        spec = make_zf_spec([3])
        assert spec.retained_at(1) == (1, 3)

    def test_always_two_per_level_so_counts_are_powers_of_two(self):
        spec = make_zf_spec([0, 1, 2, 3, 2, 1])
        for n in range(7):
            assert build_stage(spec, n).interval_count == 2**n

    def test_empty_digits_rejected(self):
        with pytest.raises(InputError):
            make_zf_spec([])

    def test_a_non_integer_digit_is_refused(self):
        with pytest.raises(InputError, match=r"^digit at position 2 must be an integer, got 3\.9$"):
            make_zf_spec([1, 3.9])

    def test_depth_beyond_digit_stream_rejected(self):
        spec = make_zf_spec([0, 1])
        with pytest.raises(InputError):
            build_stage(spec, 3)


class TestStages:
    def test_pess_measure_halves_each_level(self):
        spec = make_pess_spec()
        for n in range(21):
            stage = build_stage(spec, n)
            assert stage.total_length == F(1, 2**n)
            assert stage.interval_count == 2**n

    def test_counts_come_without_enumeration(self):
        # far above the materialization cap, still exact
        stage = build_stage(make_pess_spec(), 64)
        assert stage.interval_count == 2**64
        assert stage.total_length == F(1, 2**64)

    def test_cantor13_stage2_hand_expanded(self):
        # two levels of the b=8, keep-{0,7} rule, expanded by hand
        assert intervals(make_named_spec("cantor13"), 2) == [
            (F(0), F(1, 64)),
            (F(7, 64), F(8, 64)),
            (F(56, 64), F(57, 64)),
            (F(63, 64), F(1)),
        ]

    def test_cantor13_measure(self):
        for n in range(8):
            assert build_stage(make_named_spec("cantor13"), n).total_length == F(1, 4**n)

    def test_materialization_cap(self):
        stage = build_stage(make_pess_spec(), 24)
        with pytest.raises(CapacityError, match="1048576"):
            materialize(stage)
        small = build_stage(make_pess_spec(), 8)
        with pytest.raises(CapacityError, match="cap 100"):
            materialize(small, cap=100)
        assert len(materialize(small, cap=256)) == 256

    def test_nesting_depth_8(self):
        # every stage-(n+1) interval sits inside exactly one stage-n interval
        for name in ("pess", "cantor13", "mod6"):
            spec = make_named_spec(name)
            for n in range(8):
                parents = intervals(spec, n)
                for lo, hi in build_stage(spec, n + 1).intervals():
                    hosts = [1 for plo, phi in parents if plo <= lo and hi <= phi]
                    assert sum(hosts) == 1

    def test_intervals_sorted_disjoint_equal_length(self):
        spec = make_named_spec("mod8")
        stage = build_stage(spec, 3)
        items = materialize(stage)
        length = F(1, 8**3)
        for (alo, ahi), (blo, bhi) in zip(items, items[1:]):
            assert ahi - alo == length
            assert ahi <= blo
        assert items[-1][1] - items[-1][0] == length

    def test_depth_zero_is_unit_interval(self):
        assert intervals(make_pess_spec(), 0) == [(F(0), F(1))]

    def test_negative_depth_rejected(self):
        with pytest.raises(InputError):
            build_stage(make_pess_spec(), -1)

    @pytest.mark.parametrize("build", [build_stage, self_similarity_check])
    @pytest.mark.parametrize("depth", [2.0, "2"])
    def test_a_non_integer_depth_is_refused(self, build, depth):
        with pytest.raises(InputError, match=r"^depth must be an integer, got "):
            build(make_pess_spec(), depth)


class TestAddresses:
    def test_finite_geometric_sum(self):
        point = address_to_point(make_pess_spec(), Address((0, 0, 0)))
        assert point == F(1, 4) + F(1, 16) + F(1, 64) == F(21, 64)

    def test_all_ones_tends_to_one(self):
        spec = make_pess_spec()
        for n in (5, 10, 20):
            point = address_to_point(spec, Address((1,) * n))
            assert point == sum(F(3, 4**k) for k in range(1, n + 1))
            assert 1 - point == F(1, 4**n)

    def test_all_zeros_tends_to_one_third(self):
        spec = make_pess_spec()
        for n in (5, 10, 20):
            point = address_to_point(spec, Address((0,) * n))
            assert F(1, 3) - point == F(1, 3 * 4**n)

    def test_a_non_integer_index_is_refused(self):
        with pytest.raises(InputError, match=r"^address index at level 2 must be an integer, got 0\.5$"):
            address_to_point(make_pess_spec(), Address((1, 0.5)))

    def test_out_of_range_index_names_level(self):
        with pytest.raises(AddressError) as err:
            address_to_point(make_pess_spec(), Address((0, 2, 0)))
        assert err.value.level == 2

    def test_depth_n_addresses_hit_exactly_the_left_endpoints(self):
        spec = make_pess_spec()
        n = 8
        import itertools

        points = {
            address_to_point(spec, Address(bits))
            for bits in itertools.product((0, 1), repeat=n)
        }
        assert len(points) == 2**n  # injective
        lefts = {lo for lo, _ in build_stage(spec, n).intervals()}
        assert points == lefts


class TestIfs:
    def test_pess_maps_on_unit_interval(self):
        ifs = ifs_of_grid(make_pess_spec())
        assert sorted(apply_ifs_step(ifs, [(F(0), F(1))])) == [(F(1, 4), F(1, 2)), (F(3, 4), F(1))]

    def test_cantor13_maps(self):
        ifs = ifs_of_grid(make_named_spec("cantor13"))
        assert sorted(apply_ifs_step(ifs, [(F(0), F(1))])) == [(F(0), F(1, 8)), (F(7, 8), F(1))]

    def test_iterated_ifs_reproduces_stages(self):
        spec = make_pess_spec()
        ifs = ifs_of_grid(spec)
        current = [(F(0), F(1))]
        for n in range(1, 7):
            current = sorted(apply_ifs_step(ifs, current))
            assert current == intervals(spec, n)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            GeneralIfsSpec(
                maps=(
                    IfsMap(F(1, 4), F(0), F(1, 3)),
                    IfsMap(F(1, 4), F(3, 4), F(1, 3)),
                )
            )


class TestSelfSimilarity:
    def test_pess_depth_8(self):
        report = self_similarity_check(make_pess_spec(), 8)
        assert report.ok and report.levels_checked == 8

    def test_cantor13_depth_8(self):
        assert self_similarity_check(make_named_spec("cantor13"), 8).ok

    def test_level_varying_spec_rejected(self):
        spec = make_zf_spec([0, 1, 0, 1])
        with pytest.raises(UnsupportedStructureError):
            self_similarity_check(spec, 3)


# The Fraction-interval check that the integer one replaced, kept as its
# reference.  It looks ifs_of_grid up in the module, so a patched map family
# reaches both checks.
def reference_self_similarity_check(spec, depth, cap=DEFAULT_ENUMERATION_CAP):
    if not spec.is_constant:
        raise UnsupportedStructureError(
            f"spec '{spec.label}' changes its retained set by level; "
            "a single map family cannot reproduce it"
        )
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    ifs = grids_module.ifs_of_grid(spec)
    current = materialize(build_stage(spec, 0), cap)
    for n in range(depth):
        expected = sorted(materialize(build_stage(spec, n + 1), cap))
        images = sorted(apply_ifs_step(ifs, current))
        if images != expected:
            return SelfSimilarityReport(
                ok=False,
                spec_label=spec.label,
                levels_checked=n,
                first_mismatch_level=n + 1,
            )
        current = expected
    return SelfSimilarityReport(ok=True, spec_label=spec.label, levels_checked=depth)


def check_raised(check, spec, depth, cap):
    """The message of the CapacityError that the check raises."""
    with pytest.raises(CapacityError) as info:
        check(spec, depth, cap)
    return str(info.value)


@st.composite
def self_similar_cases(draw):
    """A constant spec (base 2-12), a depth 1-6 and an order of its map family.

    Retained sets shrink so the deepest stage keeps at most
    MAX_EXAMPLE_INTERVALS intervals.
    """
    base = draw(st.integers(2, 12))
    depth = draw(st.integers(1, 6))
    size = base - 1
    while size**depth > MAX_EXAMPLE_INTERVALS:
        size -= 1
    retained = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=size, unique=True))
    spec = GridSpec(base=base, label="constant", constant=tuple(retained))
    return spec, depth, draw(st.permutations(range(len(retained))))


def patched_maps(spec, order, miss=None):
    """Patch ifs_of_grid to list the spec's maps in ``order``, with map ``miss``'s offset moved by 1/b."""
    maps = [
        IfsMap(m.ratio, m.offset + (F(1, spec.base) if i == miss else 0), m.weight)
        for i, m in enumerate(ifs_of_grid(spec).maps)
    ]
    ifs = GeneralIfsSpec(maps=tuple(maps[i] for i in order), label=spec.label)
    return mock.patch.object(grids_module, "ifs_of_grid", lambda _spec: ifs)


class TestSelfSimilarityMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(self_similar_cases())
    def test_reports_match_in_any_map_order(self, case):
        spec, depth, order = case
        with patched_maps(spec, order):
            got = self_similarity_check(spec, depth)
            assert got == reference_self_similarity_check(spec, depth)
        assert got.ok and got.levels_checked == depth

    @settings(max_examples=150, deadline=None)
    @given(self_similar_cases(), st.data())
    def test_a_missed_map_fails_at_the_same_level(self, case, data):
        spec, depth, order = case
        miss = data.draw(st.integers(0, len(order) - 1))
        with patched_maps(spec, order, miss):
            got = self_similarity_check(spec, depth)
            assert got == reference_self_similarity_check(spec, depth)
        assert not got.ok and got.first_mismatch_level is not None

    @settings(max_examples=150, deadline=None)
    @given(self_similar_cases(), st.data())
    def test_cap_raises_at_the_same_stage(self, case, data):
        spec, depth, _ = case
        cap = data.draw(st.integers(0, build_stage(spec, depth).interval_count - 1))
        got = check_raised(self_similarity_check, spec, depth, cap)
        assert got == check_raised(reference_self_similarity_check, spec, depth, cap)


class TestExports:
    def test_rows_are_exact_integers(self):
        stage = build_stage(make_pess_spec(), 2)
        rows = list(stage_rows(stage))
        assert rows[0] == (0, 5, 16, 3, 8)
        assert len(rows) == 4

    def test_json_uses_p_over_q_strings(self):
        payload = stage_to_json(build_stage(make_pess_spec(), 1))
        assert payload["intervals"] == [["1/4", "1/2"], ["3/4", "1/1"]]
        assert payload["total_length"] == "1/2"


# The Fraction-based enumeration and exports that the integer path replaced,
# kept as the reference it must reproduce exactly.
def reference_intervals(stage):
    b = stage.spec.base
    den = b**stage.depth
    levels = [stage.spec.retained_at(k) for k in range(1, stage.depth + 1)]
    for choice in itertools.product(*levels):
        num = 0
        for d in choice:
            num = num * b + d
        yield (Fraction(num, den), Fraction(num + 1, den))


def reference_rows(stage):
    for i, (left, right) in enumerate(reference_intervals(stage)):
        yield (i, left.numerator, left.denominator, right.numerator, right.denominator)


def reference_csv(stage):
    fp = io.StringIO()
    fp.write("index,left_numerator,left_denominator,right_numerator,right_denominator\n")
    for row in reference_rows(stage):
        fp.write(",".join(str(v) for v in row) + "\n")
    return fp.getvalue()


def reference_json(stage):
    def frac_str(x):
        return f"{x.numerator}/{x.denominator}"

    return {
        "label": stage.spec.label,
        "base": stage.spec.base,
        "depth": stage.depth,
        "interval_count": stage.interval_count,
        "total_length": frac_str(stage.total_length),
        "intervals": [[frac_str(a), frac_str(b)] for a, b in reference_intervals(stage)],
    }


def first_difference(got, expected):
    """(index, got item, expected item) at the first mismatch, else None.

    A short message: pytest's own diff of two long lists is slow enough to
    stall hypothesis's shrinking.
    """
    for i, pair in enumerate(itertools.zip_longest(got, expected)):
        if pair[0] != pair[1]:
            return (i, *pair)
    return None


# stages hold at most this many intervals, so each example stays fast
MAX_EXAMPLE_INTERVALS = 4096


@st.composite
def stages(draw):
    """A constant or per-level spec (base 2-12, strict-subset retained sets) and a depth 0-8."""
    base = draw(st.integers(2, 12))
    depth = draw(st.integers(0, 8))
    size = base - 1
    while depth and size**depth > MAX_EXAMPLE_INTERVALS:
        size -= 1
    retained = st.lists(st.integers(0, base - 1), min_size=1, max_size=size, unique=True)
    if draw(st.booleans()):
        spec = GridSpec(base=base, label="constant", constant=tuple(draw(retained)))
    else:
        levels = draw(st.lists(retained, min_size=max(depth, 1), max_size=depth + 2))
        spec = GridSpec(base=base, label="per-level", per_level=tuple(map(tuple, levels)))
    return build_stage(spec, depth)


# manifest values: what a run manifest holds
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=3),
)

# tail lists from one integer up to the default, so every split of the levels occurs
tail_sizes = st.one_of(st.integers(1, 64), st.just(grids_module._TAIL_SIZE))


class TestIntegerEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(stages(), tail_sizes)
    def test_numerators_and_intervals_match_reference(self, stage, tail_size):
        with mock.patch.object(grids_module, "_TAIL_SIZE", tail_size):
            nums = list(stage.numerators())
            got = list(stage.intervals())
        assert len(nums) == stage.interval_count
        assert all(a < b for a, b in itertools.pairwise(nums))
        assert first_difference(got, list(reference_intervals(stage))) is None

    @settings(max_examples=300, deadline=None)
    @given(stages(), tail_sizes)
    def test_exports_match_reference(self, stage, tail_size):
        with mock.patch.object(grids_module, "_TAIL_SIZE", tail_size):
            fp = io.StringIO()
            write_stage_csv(stage, fp)
            payload = stage_to_json(stage)
        assert first_difference(fp.getvalue().splitlines(), reference_csv(stage).splitlines()) is None
        expected = reference_json(stage)
        assert first_difference(payload.pop("intervals"), expected.pop("intervals")) is None
        assert payload == expected

    @settings(max_examples=300, deadline=None)
    @given(stages(), tail_sizes, st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3))
    # depth 0, and depth 5 of a one-digit rule: one interval each
    @example(build_stage(make_pess_spec(), 0), 1, {"command": "construct"})
    @example(build_stage(GridSpec(base=3, label="one", constant=(2,)), 5), 1, {})
    def test_streamed_json_matches_json_dumps(self, stage, tail_size, manifest):
        # the call cmd_construct makes, written to stdout
        with mock.patch.object(grids_module, "_TAIL_SIZE", tail_size), contextlib.redirect_stdout(io.StringIO()) as fp:
            blocks = (block[1:] for block in row_blocks(stage))
            cli._emit_json(Namespace(out=None), manifest, {**stage_header(stage), "intervals": []}, blocks)
            expected = json.dumps({"manifest": manifest, "result": stage_to_json(stage)}, indent=2) + "\n"
        got = fp.getvalue()
        assert first_difference(got.splitlines(), expected.splitlines()) is None
        assert got == expected

    def test_numerators_stream(self):
        # 2^60 intervals: only a generator that streams can return the first one
        first = next(iter(build_stage(make_pess_spec(), 60).numerators()))
        assert first == (4**60 - 1) // 3  # digit 1 at every level

    def test_json_checks_cap_before_enumerating(self):
        with pytest.raises(CapacityError):
            stage_to_json(build_stage(make_pess_spec(), 60))


def constant_stage(base, retained, depth):
    return build_stage(GridSpec(base=base, label="constant", constant=retained), depth)


class TestRowBlocks:
    @settings(max_examples=300, deadline=None)
    @given(stages(), tail_sizes)
    # the cases where the head changes a tail's gcd, each with tails short enough to leave several heads:
    # a retained 0 (t = 0), all-(b-1) tails (t + 1 = shift), composite bases with repeated primes,
    # a --modq-sized base, and depth 0
    @example(constant_stage(4, (0, 1), 6), 4)
    @example(constant_stage(3, (0, 2), 8), 4)
    @example(constant_stage(12, (0, 4, 8), 4), 9)
    @example(constant_stage(8, (0, 7), 6), 4)
    @example(constant_stage(10**30, (1, 3, 5, 7), 2), 4)
    @example(constant_stage(10**30, (1, 3, 5, 7), 2), grids_module._TAIL_SIZE)
    @example(build_stage(make_pess_spec(), 0), 1)
    def test_rows_csv_and_streamed_json_match_reference(self, stage, tail_size):
        with mock.patch.object(grids_module, "_TAIL_SIZE", tail_size):
            blocks = list(row_blocks(stage))
            rows = list(stage_rows(stage))
            fp = io.StringIO()
            write_stage_csv(stage, fp)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                header = {**stage_header(stage), "intervals": []}
                cli._emit_json(Namespace(out=None), {}, header, (block[1:] for block in blocks))
        assert all(len(set(map(len, block))) == 1 for block in blocks)
        assert [i for block in blocks for i in block[0]] == list(range(stage.interval_count))
        assert first_difference(rows, list(reference_rows(stage))) is None
        assert first_difference(fp.getvalue().splitlines(), reference_csv(stage).splitlines()) is None
        expected = json.dumps({"manifest": {}, "result": reference_json(stage)}, indent=2) + "\n"
        assert first_difference(out.getvalue().splitlines(), expected.splitlines()) is None
        assert out.getvalue() == expected

    @pytest.mark.parametrize("base", range(2, 25))
    @pytest.mark.parametrize("tail_levels", [1, 2])
    def test_the_head_changes_a_tail_gcd_exactly_when_the_pow_rule_fails(self, base, tail_levels):
        # every tail t in 0..shift, left ends and right ends alike, under every head of one more level
        shift = base**tail_levels
        den = shift * base
        mults, offsets, dens, odd = grids_module._tail_terms(list(range(shift + 1)), shift, den, base)
        for t in range(shift + 1):
            ends = [F(head * shift + t, den) for head in range(base)]
            assert (t in odd) == any(gcd(head * shift + t, den) != gcd(t, shift) for head in range(base)), t
            if t not in odd:
                assert ends == [F(head * mults[t] + offsets[t], dens[t]) for head in range(base)], t
