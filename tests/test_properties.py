"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.predicates import between, eq, ge, le
from repro.join.grouping import bottom_up_grouping, first_fit_grouping, greedy_grouping, grouping_cost
from repro.join.kernels import join_match_count_arrays
from repro.join.overlap import compute_overlap_matrix, probe_blocks_needed, ranges_overlap
from repro.partitioning.builders import build_median_tree, median_cutpoint
from repro.partitioning.tree import PartitioningTree

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

key_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=0, max_value=200),
    elements=st.integers(min_value=0, max_value=50),
)


@st.composite
def interval_lists(draw, max_intervals=20):
    count = draw(st.integers(min_value=0, max_value=max_intervals))
    intervals = []
    for _ in range(count):
        lo = draw(st.floats(min_value=0, max_value=1000, allow_nan=False))
        width = draw(st.floats(min_value=0, max_value=200, allow_nan=False))
        intervals.append((lo, lo + width))
    return intervals


@st.composite
def overlap_matrices(draw):
    build = draw(interval_lists())
    probe = draw(interval_lists())
    return compute_overlap_matrix(build, probe)


# --------------------------------------------------------------------------- #
# Overlap properties
# --------------------------------------------------------------------------- #


class TestOverlapProperties:
    @given(interval_lists(), interval_lists())
    @settings(max_examples=50, deadline=None)
    def test_matrix_matches_pairwise_overlap(self, build, probe):
        matrix = compute_overlap_matrix(build, probe)
        assert matrix.shape == (len(build), len(probe))
        for i, b in enumerate(build):
            for j, p in enumerate(probe):
                assert matrix[i, j] == ranges_overlap(b, p)

    @given(interval_lists(), interval_lists())
    @settings(max_examples=50, deadline=None)
    def test_transpose_symmetry(self, build, probe):
        forward = compute_overlap_matrix(build, probe)
        backward = compute_overlap_matrix(probe, build)
        assert np.array_equal(forward, backward.T)

    @given(interval_lists())
    @settings(max_examples=30, deadline=None)
    def test_every_block_overlaps_itself(self, ranges):
        matrix = compute_overlap_matrix(ranges, ranges)
        if len(ranges):
            assert matrix.diagonal().all()


# --------------------------------------------------------------------------- #
# Grouping properties
# --------------------------------------------------------------------------- #


class TestGroupingProperties:
    @given(overlap_matrices(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_bottom_up_is_a_valid_partitioning(self, overlap, budget):
        grouping = bottom_up_grouping(overlap, budget)
        grouping.validate(overlap.shape[0], budget)
        assert grouping.total_probe_reads == sum(grouping_cost(overlap, grouping.groups))

    @given(overlap_matrices(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_cost_bounded_below_by_needed_probe_blocks(self, overlap, budget):
        """No grouping can read fewer probe blocks than the number that overlap at all."""
        grouping = bottom_up_grouping(overlap, budget)
        assert grouping.total_probe_reads >= probe_blocks_needed(overlap)

    @given(overlap_matrices(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_cost_bounded_above_by_total_overlaps(self, overlap, budget):
        """Sharing can only reduce reads relative to probing per build block."""
        grouping = bottom_up_grouping(overlap, budget)
        assert grouping.total_probe_reads <= int(overlap.sum())

    @given(overlap_matrices(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_all_heuristics_produce_valid_groupings(self, overlap, budget):
        for algorithm in (bottom_up_grouping, greedy_grouping, first_fit_grouping):
            algorithm(overlap, budget).validate(overlap.shape[0], budget)


# --------------------------------------------------------------------------- #
# Join kernel properties
# --------------------------------------------------------------------------- #


class TestJoinKernelProperties:
    @given(key_arrays, key_arrays)
    @settings(max_examples=60, deadline=None)
    def test_match_count_equals_bruteforce(self, left, right):
        brute = sum(int((right == key).sum()) for key in left)
        assert join_match_count_arrays(left, right) == brute

    @given(key_arrays, key_arrays)
    @settings(max_examples=60, deadline=None)
    def test_match_count_is_symmetric(self, left, right):
        assert join_match_count_arrays(left, right) == join_match_count_arrays(right, left)

    @given(key_arrays, key_arrays, key_arrays)
    @settings(max_examples=40, deadline=None)
    def test_histogram_merge_distributes_over_join(self, a, b, probe):
        """join(concat(a, b), probe) == join(a, probe) + join(b, probe): merging
        two key histograms is concatenating their keys."""
        split_sum = join_match_count_arrays(a, probe) + join_match_count_arrays(b, probe)
        assert join_match_count_arrays(np.concatenate([a, b]), probe) == split_sum

    @given(key_arrays)
    @settings(max_examples=40, deadline=None)
    def test_histogram_total_preserved(self, keys):
        """Against its own distinct keys every row matches exactly once: the
        join preserves a key histogram's total, on the counting path and on
        the sort path (float keys) alike."""
        for side in (keys, keys.astype(np.float64)):
            assert join_match_count_arrays(side, np.unique(side)) == len(keys)


# --------------------------------------------------------------------------- #
# Partitioning tree properties
# --------------------------------------------------------------------------- #


class TestTreeProperties:
    @given(
        arrays(np.float64, st.integers(min_value=2, max_value=400),
               elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    )
    @settings(max_examples=50, deadline=None)
    def test_median_cutpoint_splits_properly(self, values):
        cut = median_cutpoint(values)
        if cut is None:
            assert len(np.unique(values)) < 2
        else:
            assert 0 < (values <= cut).sum() < len(values)

    @given(
        arrays(np.float64, st.integers(min_value=16, max_value=300),
               elements=st.floats(min_value=0, max_value=1e4, allow_nan=False)),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_routing_covers_every_row_exactly_once(self, values, num_leaves):
        sample = {"a": values}
        root = build_median_tree(sample, num_leaves, lambda d, p, i: "a", ["a"])
        tree = PartitioningTree(root=root)
        leaf_indices = tree.route_rows(sample)
        assert len(leaf_indices) == len(values)
        assert leaf_indices.min() >= 0 and leaf_indices.max() < num_leaves

    @given(
        arrays(np.float64, st.integers(min_value=32, max_value=300),
               elements=st.floats(min_value=0, max_value=1e4, allow_nan=False)),
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_lookup_is_a_superset_of_matching_blocks(self, values, num_leaves, probe_value):
        """Every row satisfying a predicate lives in a block returned by lookup."""
        sample = {"a": values}
        root = build_median_tree(sample, num_leaves, lambda d, p, i: "a", ["a"])
        tree = PartitioningTree(root=root)
        tree.assign_block_ids(list(range(tree.num_leaves)))
        leaf_indices = tree.route_rows(sample)
        for predicate in (le("a", probe_value), ge("a", probe_value), eq("a", probe_value),
                          between("a", probe_value, probe_value + 100)):
            allowed = set(tree.lookup([predicate]))
            mask = predicate.mask(values)
            touched = set(leaf_indices[mask].tolist())
            assert touched.issubset(allowed)
