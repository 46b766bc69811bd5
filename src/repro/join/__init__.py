"""Distributed join planning: hyper-join schedules, block grouping, the ILP,
and the row kernels the task engine runs joins with."""

from .grouping import (
    Grouping,
    average_probe_multiplicity,
    bottom_up_grouping,
    first_fit_grouping,
    greedy_grouping,
    group_blocks,
    grouping_cost,
)
from .hyperjoin import HyperJoinPlan, plan_hyper_join
from .ilp import ILPSolution, ilp_grouping
from .kernels import hash_partition, join_match_count_arrays
from .overlap import compute_overlap_matrix, delta, probe_blocks_needed, ranges_overlap, union_vector

__all__ = [
    "Grouping",
    "HyperJoinPlan",
    "ILPSolution",
    "average_probe_multiplicity",
    "bottom_up_grouping",
    "compute_overlap_matrix",
    "delta",
    "first_fit_grouping",
    "greedy_grouping",
    "group_blocks",
    "grouping_cost",
    "hash_partition",
    "ilp_grouping",
    "join_match_count_arrays",
    "plan_hyper_join",
    "probe_blocks_needed",
    "ranges_overlap",
    "union_vector",
]
