"""Tests for repro.join.grouping (bottom-up, greedy, first-fit block grouping)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import PlanningError
from repro.join.grouping import (
    average_probe_multiplicity,
    bottom_up_grouping,
    first_fit_grouping,
    greedy_grouping,
    grouping_cost,
)
from repro.join.overlap import compute_overlap_matrix

#: The planner's rule and the two comparisons of the grouping ablation.
COMPARED = {
    "bottom_up": bottom_up_grouping,
    "first_fit": first_fit_grouping,
    "greedy": greedy_grouping,
}


def example1_overlap() -> np.ndarray:
    """Example 1 from the paper's introduction (3 build blocks, 3 probe blocks)."""
    return np.array(
        [
            [1, 1, 0],  # A1 joins B1, B2
            [1, 1, 1],  # A2 joins B1, B2, B3
            [0, 1, 1],  # A3 joins B2, B3
        ],
        dtype=bool,
    )


def random_overlap(rng, num_build=32, num_probe=16, width=20.0) -> np.ndarray:
    starts = rng.uniform(0, 100, size=num_build)
    build = [(float(s), float(s + width)) for s in starts]
    edges = np.linspace(0, 100 + width, num_probe + 1)
    probe = [(float(lo), float(hi)) for lo, hi in zip(edges, edges[1:])]
    return compute_overlap_matrix(build, probe)


def figure6_grouping(overlap: np.ndarray, budget: int) -> tuple[list[list[int]], list[int]]:
    """Figure 6 as written: every step compares every remaining block and
    takes the first with the least δ of the group's union.  Returns the
    groups and each group's reads."""
    matrix = np.asarray(overlap, dtype=bool)
    remaining = list(range(matrix.shape[0]))
    groups, reads = [], []
    group, union = [], np.zeros(matrix.shape[1], dtype=bool)
    while remaining:
        deltas = (matrix[remaining] | union).sum(axis=1)
        best = remaining.pop(int(np.argmin(deltas)))  # the first minimum
        group.append(best)
        union = union | matrix[best]
        if len(group) == budget or not remaining:
            groups.append(group)
            reads.append(int(union.sum()))
            group, union = [], np.zeros(matrix.shape[1], dtype=bool)
    return groups, reads


def reference_inputs() -> dict[str, np.ndarray]:
    """Repeated rows (as range partitioning makes them), empty rows and
    shapes past 256 rows and 64 columns."""
    rng = np.random.default_rng(34)
    pool = rng.random((5, 40)) < 0.3
    wide_pool = rng.random((9, 90)) < 0.2
    repeated = pool[rng.integers(0, len(pool), 60)]
    return {
        "repeated": pool[rng.integers(0, len(pool), 120)],
        "repeated_and_distinct": rng.permutation(
            np.vstack([repeated, rng.random((8, 40)) < 0.5])
        ),
        "repeated_and_empty": rng.permutation(
            np.vstack([repeated, np.zeros((20, 40), dtype=bool)])
        ),
        "all_empty": np.zeros((50, 12), dtype=bool),
        "no_rows": np.zeros((0, 7), dtype=bool),
        "no_columns": np.zeros((9, 0), dtype=bool),
        "one_row": np.ones((1, 3), dtype=bool),
        "ranges": random_overlap(rng, num_build=96, num_probe=30),
        "300x90_repeated": wide_pool[rng.integers(0, len(wide_pool), 300)],
        "300x70_distinct": rng.random((300, 70)) < 0.25,
    }


REFERENCE_INPUTS = reference_inputs()


class TestExample1:
    def test_good_grouping_costs_five(self):
        """Grouping {A1,A2},{A3} reads 5 probe blocks — the paper's optimum."""
        assert sum(grouping_cost(example1_overlap(), [[0, 1], [2]])) == 5

    def test_bad_grouping_costs_six(self):
        """Grouping {A1,A3},{A2} reads 6 probe blocks — the paper's bad example."""
        assert sum(grouping_cost(example1_overlap(), [[0, 2], [1]])) == 6

    def test_bottom_up_finds_the_optimum(self):
        grouping = bottom_up_grouping(example1_overlap(), budget=2)
        assert grouping.total_probe_reads == 5


class TestFigure6Reference:
    @pytest.mark.parametrize("budget", range(1, 13))
    @pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
    def test_bottom_up_equals_figure6(self, name, budget):
        """Same groups, in the same order, with the same reads."""
        overlap = REFERENCE_INPUTS[name]
        groups, reads = figure6_grouping(overlap, budget)
        grouping = bottom_up_grouping(overlap, budget)
        assert grouping.groups == groups
        assert grouping.probe_reads_per_group == reads


class TestGroupingValidity:
    @pytest.mark.parametrize("algorithm", sorted(COMPARED))
    @pytest.mark.parametrize("budget", [1, 2, 4, 7, 32])
    def test_every_block_grouped_exactly_once(self, rng, algorithm, budget):
        for num_build in (32, 300):
            overlap = random_overlap(rng, num_build=num_build)
            grouping = COMPARED[algorithm](overlap, budget)
            grouping.validate(overlap.shape[0], budget)

    @pytest.mark.parametrize("algorithm", sorted(COMPARED))
    def test_probe_reads_match_reported_cost(self, rng, algorithm):
        overlap = random_overlap(rng)
        grouping = COMPARED[algorithm](overlap, 4)
        assert grouping.total_probe_reads == sum(grouping_cost(overlap, grouping.groups))

    def test_budget_one_reads_every_overlap(self, rng):
        """With one block per group there is no sharing: cost equals total overlaps."""
        overlap = random_overlap(rng)
        grouping = bottom_up_grouping(overlap, budget=1)
        assert grouping.total_probe_reads == int(overlap.sum())

    def test_budget_covering_all_blocks_reads_each_probe_once(self, rng):
        overlap = random_overlap(rng)
        grouping = bottom_up_grouping(overlap, budget=overlap.shape[0])
        assert grouping.num_groups == 1
        assert grouping.total_probe_reads == int(overlap.any(axis=0).sum())

    def test_invalid_budget_rejected(self, rng):
        with pytest.raises(PlanningError):
            bottom_up_grouping(random_overlap(rng), 0)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(PlanningError):
            bottom_up_grouping(np.zeros(4, dtype=bool), 2)

    def test_empty_relation(self):
        grouping = bottom_up_grouping(np.zeros((0, 5), dtype=bool), 4)
        assert grouping.groups == [] and grouping.total_probe_reads == 0


class TestGroupingQuality:
    def test_bottom_up_beats_or_matches_first_fit_on_average(self, rng):
        """Cost-aware grouping should not lose to naive chunking on sorted-range data."""
        wins = 0
        trials = 10
        for trial in range(trials):
            overlap = random_overlap(rng, num_build=40, num_probe=20)
            # Shuffle build order so first-fit cannot benefit from accidental ordering.
            permutation = rng.permutation(overlap.shape[0])
            shuffled = overlap[permutation]
            smart = bottom_up_grouping(shuffled, 4).total_probe_reads
            naive = first_fit_grouping(shuffled, 4).total_probe_reads
            assert smart <= naive + 2  # never meaningfully worse
            if smart < naive:
                wins += 1
        assert wins >= trials // 2

    def test_greedy_and_bottom_up_are_comparable(self, rng):
        overlap = random_overlap(rng, num_build=40, num_probe=20)
        greedy = greedy_grouping(overlap, 4).total_probe_reads
        bottom_up = bottom_up_grouping(overlap, 4).total_probe_reads
        assert abs(greedy - bottom_up) <= 0.3 * max(greedy, bottom_up)

    def test_larger_budget_never_increases_cost(self, rng):
        overlap = random_overlap(rng, num_build=48, num_probe=24)
        costs = [
            bottom_up_grouping(overlap, budget).total_probe_reads
            for budget in (1, 2, 4, 8, 16, 48)
        ]
        assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))

    def test_co_partitioned_input_reaches_multiplicity_one(self):
        edges = np.linspace(0, 100, 17)
        ranges = [(float(lo), float(hi) - 1e-9) for lo, hi in zip(edges, edges[1:])]
        overlap = compute_overlap_matrix(ranges, ranges)
        grouping = bottom_up_grouping(overlap, 4)
        assert average_probe_multiplicity(overlap, grouping) == pytest.approx(1.0)

    def test_multiplicity_of_empty_problem_is_one(self):
        overlap = np.zeros((0, 0), dtype=bool)
        grouping = bottom_up_grouping(np.zeros((0, 4), dtype=bool), 2)
        assert average_probe_multiplicity(np.zeros((0, 4), dtype=bool), grouping) == 1.0
