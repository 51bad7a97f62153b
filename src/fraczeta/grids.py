"""Exact construction of digit-restricted fractals on [0, 1].

A grid spec fixes a base ``b`` and, per subdivision level, the set of
digit positions that survive.  Stage ``n`` of the construction is the
union of all closed intervals whose first ``n`` base-``b`` digits are
retained.  Each interval is ``[m / b**n, (m + 1) / b**n]`` for an integer
numerator ``m``, so a stage is enumerated as integers
(:meth:`StageSet.numerators`) and exported straight from them; `Fraction`
endpoints are only the API form (:meth:`StageSet.intervals`), exact so that
nesting, measure, and self-similarity checks carry no floating-point drift.

Everything here is immutable and pure; stage intervals are enumerated
lazily and only materialized under an explicit cap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import gcd, prod
from operator import add
from typing import Iterator, Sequence

from .errors import AddressError, InputError, UnsupportedStructureError
from .limits import DEFAULT_ENUMERATION_CAP, MAX_STAGE_BITS, as_integer, check_work

# The deepest levels' numerators (the tails) are built once, at most this many, and shifted per upper-level prefix:
# this bounds memory; an export reduces each tail once, at about a row's cost, so a longer list saves it less.
_TAIL_SIZE = 1024

NAMED_SPECS = {
    "pess": (4, (1, 3)),
    "cantor13": (8, (0, 7)),
    "classic-cantor": (3, (0, 2)),
    "mod6": (6, (1, 5)),
    "mod8": (8, (1, 3, 5, 7)),
}


def _check_retained(base: int, digits: Sequence[int], level: str) -> tuple[int, ...]:
    out = tuple(sorted({as_integer(d, f"retained digit at {level}") for d in digits}))
    if not out:
        raise InputError("retained set at {level} is empty", level=level)
    bad = [d for d in out if d < 0 or d >= base]
    if bad:
        raise InputError("retained digit {digit} at {level} not in 0..{top}", digit=bad[0], level=level, top=base - 1)
    if len(out) >= base:
        raise InputError("retained set at {level} keeps every digit; must be a strict subset", level=level)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Base-``b`` digit retention rules, constant or varying per level.

    Exactly one of ``constant`` (same retained set at every level) and
    ``per_level`` (finite stream of retained sets, level 1 first) is set.
    """

    base: int
    label: str
    constant: tuple[int, ...] | None = None
    per_level: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "base", as_integer(self.base, "base"))
        if self.base < 2:
            raise InputError("base must be >= 2, got {base}", base=self.base)
        if (self.constant is None) == (self.per_level is None):
            raise InputError("exactly one of constant/per_level must be given")
        if self.constant is not None:
            object.__setattr__(
                self, "constant", _check_retained(self.base, self.constant, "all levels")
            )
        else:
            checked = tuple(
                _check_retained(self.base, digits, f"level {k}")
                for k, digits in enumerate(self.per_level, start=1)
            )
            object.__setattr__(self, "per_level", checked)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    @property
    def max_depth(self) -> int | None:
        """Deepest buildable stage, or None when unbounded."""
        return None if self.per_level is None else len(self.per_level)

    def retained_at(self, level: int) -> tuple[int, ...]:
        """Retained digit set at 1-based subdivision ``level``."""
        if level < 1:
            raise InputError("level must be >= 1, got {level}", level=level)
        if self.constant is not None:
            return self.constant
        if level > len(self.per_level):
            raise InputError(
                "spec '{label}' provides {levels} levels, level {level} requested",
                label=self.label, levels=len(self.per_level), level=level,
            )
        return self.per_level[level - 1]

    def endpoint_bits(self, depth: int) -> int:
        """Bits of a stage-``depth`` endpoint numerator: each level adds one base-b digit."""
        return depth * (self.base - 1).bit_length()


@dataclass(frozen=True)
class Address:
    """Finite digit-choice path: ``digits[k]`` indexes level k+1's retained set."""

    digits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class IfsMap:
    """Affine contraction x -> ratio*x + offset with an optional weight."""

    ratio: Fraction
    offset: Fraction
    weight: Fraction | None = None


@dataclass(frozen=True)
class GeneralIfsSpec:
    """A finite list of affine contractions, optionally weighted.

    Ratios may equal 1 only for degenerate identity-style maps; genuine
    contractions live in (0, 1).  Weights, when present on any map, must
    be present on all and sum to exactly 1.  The open set condition is
    the caller's declaration and is never verified here.
    """

    maps: tuple[IfsMap, ...]
    label: str = "ifs"

    def __post_init__(self):
        if not self.maps:
            raise InputError("IFS needs at least one map")
        for m in self.maps:
            if not (0 < m.ratio <= 1):
                raise InputError("ratio {ratio} not in (0, 1]", ratio=m.ratio)
        weights = [m.weight for m in self.maps]
        if any(w is not None for w in weights):
            if any(w is None for w in weights):
                raise InputError("either all maps carry weights or none do")
            if any(w <= 0 for w in weights):
                raise InputError("weights must be positive")
            if sum(weights) != 1:
                raise InputError("weights sum to {total}, expected 1", total=sum(weights))

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(m.ratio for m in self.maps)

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        if self.maps[0].weight is None:
            return None
        return tuple(m.weight for m in self.maps)


@dataclass(frozen=True)
class StageSet:
    """Stage ``depth`` of a grid construction, counted and measured exactly.

    Interval count and total length come straight from the retention
    rule; the intervals themselves are produced lazily, by
    :meth:`numerators` and :meth:`intervals`.
    """

    spec: GridSpec
    depth: int
    interval_count: int = field(init=False)
    total_length: Fraction = field(init=False)

    def __post_init__(self):
        count = prod(len(self.spec.retained_at(k)) for k in range(1, self.depth + 1))
        object.__setattr__(self, "interval_count", count)
        object.__setattr__(
            self, "total_length", Fraction(count, self.spec.base**self.depth)
        )

    def numerators(self) -> Iterator[int]:
        """Yield each interval's left endpoint times ``base**depth``, increasing."""
        heads, tails, shift = _split(self)
        for head in heads:
            yield from map((head * shift).__add__, tails)

    def intervals(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Yield closed intervals in increasing order of left endpoint."""
        den = self.spec.base**self.depth
        for num in self.numerators():
            yield (Fraction(num, den), Fraction(num + 1, den))

    def check_cap(self, cap: int) -> None:
        """Raise CapacityError when enumerating this stage would exceed ``cap``."""
        check_work(
            self.interval_count, cap, "stage {depth} of '{label}' has {amount} intervals",
            depth=self.depth, label=self.spec.label,
        )


def _split(stage: StageSet) -> tuple[Iterator[int], list[int], int]:
    """The stage's numerators as ``head * shift + tail``: the heads (the upper levels' numerators, increasing,
    lazily), the tails (the deepest levels' numerators, at most ``_TAIL_SIZE`` of them) and ``shift``."""
    b = stage.spec.base
    levels = [stage.spec.retained_at(k) for k in range(1, stage.depth + 1)]
    tails, shift, split = [0], 1, stage.depth
    while split and len(tails) * len(levels[split - 1]) <= _TAIL_SIZE:
        split -= 1
        tails = [d * shift + t for d in levels[split] for t in tails]
        shift *= b
    heads = (functools.reduce(lambda n, d: n * b + d, prefix, 0) for prefix in product(*levels[:split]))
    return heads, tails, shift


def make_pess_spec() -> GridSpec:
    """Base-4 grid keeping digits 1 and 3 at every level."""
    return make_named_spec("pess")


def make_named_spec(name: str) -> GridSpec:
    """Look up one of the built-in constant-rule constructions."""
    if name not in NAMED_SPECS:
        raise InputError("unknown set name {name!r}; valid names: {names}", name=name, names=", ".join(NAMED_SPECS))
    base, retained = NAMED_SPECS[name]
    return GridSpec(base=base, label=name, constant=retained)


def make_zf_spec(digits, label: str = "zf") -> GridSpec:
    """Base-4 spec whose level-n retained pair is {a_n, a_n+2 mod 4}.

    ``digits`` is either a digit sequence object exposing ``.digits()``
    or a plain iterable of integers in 0..3.  The spec is finite: it
    supports stages no deeper than the number of digits supplied.
    """
    seq = list(digits.digits() if hasattr(digits, "digits") else digits)
    if not seq:
        raise InputError("empty digit sequence")
    levels = []
    for i, a in enumerate(seq, start=1):
        a = as_integer(a, f"digit at position {i}")
        if a not in (0, 1, 2, 3):
            raise InputError("digit {digit} at position {i} not in 0..3", digit=a, i=i)
        levels.append(tuple(sorted((a, (a + 2) % 4))))
    return GridSpec(base=4, label=label, per_level=tuple(levels))


def build_stage(spec: GridSpec, depth: int) -> StageSet:
    """Exact stage-``depth`` approximation of the spec's fractal."""
    depth = as_integer(depth, "depth")
    if depth < 0:
        raise InputError("depth must be >= 0, got {depth}", depth=depth)
    if spec.max_depth is not None and depth > spec.max_depth:
        raise InputError(
            "spec '{label}' has digits for {levels} levels, stage {depth} requested",
            label=spec.label, levels=spec.max_depth, depth=depth,
        )
    check_work(
        spec.endpoint_bits(depth), MAX_STAGE_BITS, "stage {depth} of '{label}' has endpoints of {amount} bits",
        depth=depth, label=spec.label,
    )
    return StageSet(spec=spec, depth=depth)


def address_to_point(spec: GridSpec, address: Address) -> Fraction:
    """Left endpoint of the depth-n interval selected by ``address``."""
    total = Fraction(0)
    b = spec.base
    scale = Fraction(1)
    for level, idx in enumerate(address.digits, start=1):
        idx = as_integer(idx, f"address index at level {level}")
        retained = spec.retained_at(level)
        if not (0 <= idx < len(retained)):
            raise AddressError(level, idx, len(retained))
        scale /= b
        total += retained[idx] * scale
    return total


def ifs_of_grid(spec: GridSpec, weights: Sequence[Fraction] | None = None) -> GeneralIfsSpec:
    """Contraction maps x -> x/b + d/b generating a constant-rule grid set."""
    if not spec.is_constant:
        raise UnsupportedStructureError("spec '{label}' varies by level and has no single IFS", label=spec.label)
    b = spec.base
    if weights is not None and len(weights) != len(spec.constant):
        raise InputError("one weight per retained digit required")
    maps = tuple(
        IfsMap(
            ratio=Fraction(1, b),
            offset=Fraction(d, b),
            weight=None if weights is None else Fraction(weights[i]),
        )
        for i, d in enumerate(spec.constant)
    )
    return GeneralIfsSpec(maps=maps, label=spec.label)


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Outcome of the exact stage-against-images equality check."""

    ok: bool
    spec_label: str
    levels_checked: int
    first_mismatch_level: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _cell_shifts(ifs: GeneralIfsSpec, base: int, n: int) -> list[int] | None:
    """Each map's action on stage-``n`` numerators, as a shift into stage ``n + 1``.

    The map x -> r*x + o sends the cell [k, k+1] / b**n onto
    [r*b*k + o*b**(n+1), r*b*(k+1) + o*b**(n+1)] / b**(n+1).  That image is a
    stage-(n+1) grid cell for every k only when r*b == 1 and the shift
    o*b**(n+1) is an integer; otherwise None.
    """
    shifts = []
    for m in ifs.maps:
        shift = m.offset * base ** (n + 1)
        if m.ratio * base != 1 or shift.denominator != 1:
            return None
        shifts.append(shift.numerator)
    return shifts


def self_similarity_check(
    spec: GridSpec, depth: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> SelfSimilarityReport:
    """Verify stage n+1 equals the union of map images of stage n for n < depth.

    Stages are compared as sorted lists of integer left numerators: each
    map of ``ifs_of_grid(spec)`` acts on the numerators over ``b**n`` as a
    shift into numerators over ``b**(n+1)``.  Every stage is checked
    against ``cap`` before it is enumerated.  Only constant-rule specs are
    self-similar under a fixed map family; level-varying specs are rejected.
    """
    if not spec.is_constant:
        raise UnsupportedStructureError(
            "spec '{label}' changes its retained set by level; a single map family cannot reproduce it",
            label=spec.label,
        )
    depth = as_integer(depth, "depth")
    if depth < 1:
        raise InputError("depth must be >= 1, got {depth}", depth=depth)
    ifs = ifs_of_grid(spec)
    build_stage(spec, 0).check_cap(cap)
    current = [0]
    for n in range(depth):
        stage = build_stage(spec, n + 1)
        stage.check_cap(cap)
        expected = list(stage.numerators())
        shifts = _cell_shifts(ifs, spec.base, n)
        images = None if shifts is None else sorted(s + k for s in shifts for k in current)
        if images != expected:
            return SelfSimilarityReport(
                ok=False,
                spec_label=spec.label,
                levels_checked=n,
                first_mismatch_level=n + 1,
            )
        current = expected
    return SelfSimilarityReport(ok=True, spec_label=spec.label, levels_checked=depth)


def _tail_terms(tails: list[int], shift: int, den: int, base: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """``(mults, offsets, dens, odd)``: (head * shift + t) / den is (head * mults[i] + offsets[i]) / dens[i] in lowest
    terms for the i-th tail t and every head, unless i is in ``odd``.  With g = gcd(t, shift), it holds when every
    prime of the base divides shift // g (so the power of each in t is below its power in shift), which one ``pow``
    tests without factoring, as no prime's power in the base exceeds its bit length."""
    gs = [gcd(t, shift) for t in tails]
    odd = [i for i, g in enumerate(gs) if pow(shift // g, base.bit_length(), base)]
    return [shift // g for g in gs], [t // g for t, g in zip(tails, gs)], [den // g for g in gs], odd


def row_blocks(stage: StageSet) -> Iterator[tuple[range, list[int], list[int], list[int], list[int]]]:
    """The stage's export rows, one block per head: its index range and columns of left numerators, left denominators,
    right numerators and right denominators, in lowest terms.  Each tail is reduced once, and the few that the head
    changes (t = 0, t + 1 = shift, some in composite bases) once per row.  Blocks share denominator lists: read only."""
    heads, tails, shift = _split(stage)
    den = stage.spec.base**stage.depth
    ends = [(step, *_tail_terms([t + step for t in tails], shift, den, stage.spec.base)) for step in (0, 1)]
    for start, head in enumerate(heads):
        columns = []
        for step, mults, offsets, dens, odd in ends:
            nums = list(map(add, map(head.__mul__, mults), offsets))
            dens = dens.copy() if odd else dens
            for i in odd:
                nums[i], dens[i] = Fraction(head * shift + tails[i] + step, den).as_integer_ratio()
            columns += (nums, dens)
        yield (range(start * len(tails), (start + 1) * len(tails)), *columns)


def stage_rows(stage: StageSet) -> Iterator[tuple[int, int, int, int, int]]:
    """CSV-ready rows (index, left_num, left_den, right_num, right_den), in lowest terms: :func:`row_blocks` zipped."""
    return chain.from_iterable(zip(*block) for block in row_blocks(stage))


def write_stage_csv(stage: StageSet, fp) -> None:
    """Stream a stage as CSV with exact integer endpoint columns: a header, then each block of rows by one ``%``."""
    fp.write("index,left_numerator,left_denominator,right_numerator,right_denominator\n")
    fp.writelines(("%d,%d,%d,%d,%d\n" * len(b[0])) % tuple(chain.from_iterable(zip(*b))) for b in row_blocks(stage))


def stage_header(stage: StageSet) -> dict:
    """The JSON fields of a stage before its interval array: label, base, depth, count and total length."""
    total = stage.total_length
    return {
        "label": stage.spec.label,
        "base": stage.spec.base,
        "depth": stage.depth,
        "interval_count": stage.interval_count,
        "total_length": "%d/%d" % (total.numerator, total.denominator),
    }


def stage_to_json(stage: StageSet, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    """JSON-ready dict with exact 'p/q' endpoint strings.  No command calls it; it stays as the tests'
    reference for the array ``cli`` streams, and as the benchmark's ``grids.export`` span target."""
    stage.check_cap(cap)
    return {
        **stage_header(stage),
        "intervals": [
            ["%d/%d" % (ln, ld), "%d/%d" % (rn, rd)] for _, ln, ld, rn, rd in stage_rows(stage)
        ],
    }
