"""Tests for repro.common.predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanningError
from repro.common.predicates import (
    Operator,
    Predicate,
    between,
    block_may_match,
    eq,
    ge,
    gt,
    isin,
    le,
    lt,
    rows_matching,
)


class TestConstructors:
    def test_eq(self):
        predicate = eq("a", 5)
        assert predicate.op is Operator.EQ and predicate.value == 5

    def test_between_requires_high(self):
        with pytest.raises(PlanningError):
            Predicate("a", Operator.BETWEEN, 1)

    def test_between_constructor_sets_bounds(self):
        predicate = between("a", 2, 7)
        assert (predicate.value, predicate.high) == (2, 7)

    def test_isin_requires_tuple(self):
        with pytest.raises(PlanningError):
            Predicate("a", Operator.IN, [1, 2])  # type: ignore[arg-type]

    def test_isin_constructor(self):
        assert isin("a", (1, 2)).value == (1, 2)


class TestMask:
    values = np.array([1, 3, 5, 7, 9])

    def test_eq_mask(self):
        assert eq("a", 5).mask(self.values).tolist() == [False, False, True, False, False]

    def test_lt_mask(self):
        assert lt("a", 5).mask(self.values).sum() == 2

    def test_le_mask(self):
        assert le("a", 5).mask(self.values).sum() == 3

    def test_gt_mask(self):
        assert gt("a", 5).mask(self.values).sum() == 2

    def test_ge_mask(self):
        assert ge("a", 5).mask(self.values).sum() == 3

    def test_ne_mask(self):
        predicate = Predicate("a", Operator.NE, 3)
        assert predicate.mask(self.values).sum() == 4

    def test_between_mask_is_inclusive(self):
        assert between("a", 3, 7).mask(self.values).tolist() == [False, True, True, True, False]

    def test_isin_mask(self):
        assert isin("a", (1, 9)).mask(self.values).sum() == 2


class TestRangePruning:
    def test_eq_inside_range(self):
        assert eq("a", 5).may_match_range(0, 10)

    def test_eq_outside_range(self):
        assert not eq("a", 50).may_match_range(0, 10)

    def test_lt_requires_range_start_below_value(self):
        assert lt("a", 5).may_match_range(0, 10)
        assert not lt("a", 5).may_match_range(5, 10)

    def test_le_boundary(self):
        assert le("a", 5).may_match_range(5, 10)
        assert not le("a", 4).may_match_range(5, 10)

    def test_gt_requires_range_end_above_value(self):
        assert gt("a", 5).may_match_range(0, 10)
        assert not gt("a", 10).may_match_range(0, 10)

    def test_ge_boundary(self):
        assert ge("a", 10).may_match_range(0, 10)
        assert not ge("a", 11).may_match_range(0, 10)

    def test_between_overlapping(self):
        assert between("a", 5, 15).may_match_range(10, 20)

    def test_between_disjoint(self):
        assert not between("a", 5, 8).may_match_range(10, 20)

    def test_isin_any_member_inside(self):
        assert isin("a", (1, 50)).may_match_range(40, 60)
        assert not isin("a", (1, 2)).may_match_range(40, 60)

    def test_ne_only_excluded_when_range_is_single_value(self):
        predicate = Predicate("a", Operator.NE, 5)
        assert not predicate.may_match_range(5, 5)
        assert predicate.may_match_range(5, 6)

    def test_mask_and_range_agree(self, rng):
        """If may_match_range says no for the data's own min/max, the mask must be empty."""
        values = rng.integers(0, 100, size=200)
        lo, hi = float(values.min()), float(values.max())
        for predicate in (eq("a", 150), lt("a", -5), gt("a", 200), between("a", 150, 180)):
            assert not predicate.may_match_range(lo, hi)
            assert predicate.mask(values).sum() == 0


class TestRowsMatching:
    def test_conjunction(self):
        columns = {"a": np.array([1, 2, 3, 4]), "b": np.array([10, 20, 30, 40])}
        mask = rows_matching(columns, [ge("a", 2), lt("b", 40)])
        assert mask.tolist() == [False, True, True, False]

    def test_empty_predicates_match_everything(self):
        columns = {"a": np.array([1, 2, 3])}
        assert rows_matching(columns, []).all()

    def test_unknown_column_raises(self):
        with pytest.raises(PlanningError):
            rows_matching({"a": np.array([1])}, [eq("b", 1)])

    def test_empty_columns(self):
        assert rows_matching({}, []).size == 0

    def test_empty_columns_with_predicates_fail_loudly(self):
        """A miswired caller that lost its projection must not get an
        all-empty mask back silently."""
        with pytest.raises(PlanningError):
            rows_matching({}, [eq("a", 1)])


class TestBlockMayMatch:
    def test_all_predicates_must_be_satisfiable(self):
        ranges = {"a": (0.0, 10.0), "b": (100.0, 200.0)}
        assert block_may_match(ranges, [le("a", 5), ge("b", 150)])
        assert not block_may_match(ranges, [le("a", 5), ge("b", 250)])

    def test_columns_without_ranges_are_conservative(self):
        assert block_may_match({}, [eq("missing", 1)])


# --------------------------------------------------------------------- #
# The array form of may_match_range
# --------------------------------------------------------------------- #
def scalar_may_match(predicate: Predicate, lo: float, hi: float) -> bool:
    """The scalar truth table ``may_match_range`` had before it took arrays."""
    if math.isnan(lo) or math.isnan(hi):
        return True
    value, op = predicate.value, predicate.op
    if op is Operator.IN:
        return any(lo <= v <= hi for v in value)
    if op is Operator.EQ:
        return lo <= value <= hi
    if op is Operator.NE:
        return not (lo == hi == value)
    if op is Operator.LT:
        return lo < value
    if op is Operator.LE:
        return lo <= value
    if op is Operator.GT:
        return hi > value
    if op is Operator.GE:
        return hi >= value
    assert op is Operator.BETWEEN
    return not (hi < value or lo > predicate.high)


#: Few distinct values, so equal ends, ``lo > hi`` and ties with the
#: constant are common; bounds may also be infinite or NaN.
CONSTANTS = st.sampled_from([-math.inf, -2.0, 0.0, 1.5, 3.0, math.inf])
BOUNDS = st.one_of(CONSTANTS, st.just(math.nan))


@st.composite
def predicates(draw) -> Predicate:
    op = draw(st.sampled_from(list(Operator)))
    if op is Operator.IN:
        return Predicate("a", op, tuple(draw(st.lists(CONSTANTS, max_size=3))))
    if op is Operator.BETWEEN:
        return Predicate("a", op, draw(CONSTANTS), draw(CONSTANTS))
    return Predicate("a", op, draw(CONSTANTS))


class TestArrayRangePruning:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(predicate=predicates(), ends=st.lists(st.tuples(BOUNDS, BOUNDS), min_size=1, max_size=8))
    def test_array_form_equals_the_scalar_truth_table(self, predicate, ends):
        expected = [scalar_may_match(predicate, lo, hi) for lo, hi in ends]
        lo = np.array([lo for lo, _ in ends])
        hi = np.array([hi for _, hi in ends])
        got = predicate.may_match_range(lo, hi)
        assert got.dtype == bool and got.tolist() == expected
        assert [bool(predicate.may_match_range(l, h)) for l, h in ends] == expected
        # A scalar end broadcasts against an array of the other.
        assert predicate.may_match_range(-math.inf, hi).tolist() == [
            scalar_may_match(predicate, -math.inf, h) for _, h in ends
        ]

    def test_empty_in_tuple_matches_nothing_but_nan(self):
        predicate = isin("a", ())
        assert not predicate.may_match_range(-math.inf, math.inf)
        assert predicate.may_match_range(np.array([0.0, math.nan]), 1.0).tolist() == [False, True]
        assert predicate.mask(np.arange(4)).tolist() == [False] * 4

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_in_mask_equals_isin(self, rng, dtype):
        values = rng.integers(0, 20, size=500).astype(dtype)
        if dtype is np.float64:
            values[::7] = np.nan
        for members in [(3,), (1, 9, 19), (0.5, 7), (25,), (7, 7)]:
            mask = isin("a", members).mask(values)
            assert mask.tolist() == np.isin(values, np.asarray(members)).tolist()
