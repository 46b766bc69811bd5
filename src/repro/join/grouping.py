"""Block-grouping algorithms for hyper-join (Sections 4.1.3 and 4.1.5).

Hyper-join builds one hash table per *group* of build-side blocks (a group
must fit into a worker's memory, i.e. at most ``B`` blocks) and probes it
with every probe-side block that overlaps any block in the group.  The cost
of a grouping is the total number of probe-block reads:

    C(P) = Σ_{p ∈ P} δ( ∨_{r ∈ p} v_r )

Choosing the groups to minimize this cost is NP-hard (Section 4.1.4).  The
planner uses one rule, the paper's bottom-up heuristic (Figure 6), through
the memo :func:`group_blocks`:

* :func:`bottom_up_grouping` — Figure 6, run over the matrix's distinct
  overlap vectors rather than its rows.

The others are comparisons for the grouping ablation (Example 1, Figure 17),
called directly, never by the planner:

* :func:`greedy_grouping` — the approximate algorithm of Figure 5, realized
  with the same greedy block-at-a-time rule but restarted per group,
* :func:`first_fit_grouping` — a naive baseline that chunks blocks in their
  storage order, used to show the benefit of cost-aware grouping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..common.errors import PlanningError
from .overlap import delta, probe_blocks_needed, union_vector


@dataclass
class Grouping:
    """A partitioning of the build-side blocks into memory-sized groups.

    Attributes:
        groups: Lists of build-side block *indices* (positions in the overlap
            matrix, not DFS block ids).
        probe_reads_per_group: δ of the union vector of each group.
    """

    groups: list[list[int]]
    probe_reads_per_group: list[int] = field(default_factory=list)

    @property
    def total_probe_reads(self) -> int:
        """Total probe-side block reads (the paper's objective C(P))."""
        return int(sum(self.probe_reads_per_group))

    @property
    def num_groups(self) -> int:
        """Number of hash tables that will be built."""
        return len(self.groups)

    def validate(self, num_blocks: int, budget: int) -> None:
        """Check that the grouping is a valid solution to Problem 1.

        Every block index appears exactly once and no group exceeds the
        memory budget.

        Raises:
            PlanningError: if the grouping is invalid.
        """
        seen = [index for group in self.groups for index in group]
        if sorted(seen) != list(range(num_blocks)):
            raise PlanningError("grouping does not cover every build block exactly once")
        for group in self.groups:
            if len(group) > budget:
                raise PlanningError(f"group of size {len(group)} exceeds budget {budget}")


def grouping_cost(overlap: np.ndarray, groups: list[list[int]]) -> list[int]:
    """Per-group probe-read counts (δ of each group's union vector)."""
    return [delta(union_vector(overlap, group)) for group in groups]


def average_probe_multiplicity(overlap: np.ndarray, grouping: Grouping) -> float:
    """The paper's ``C_HyJ``: average number of times a needed probe block is read."""
    needed = probe_blocks_needed(overlap)
    if needed == 0:
        return 1.0
    return grouping.total_probe_reads / needed


def _check_inputs(overlap: np.ndarray, budget: int) -> None:
    if overlap.ndim != 2:
        raise PlanningError("overlap matrix must be two-dimensional")
    if budget < 1:
        raise PlanningError("memory budget must allow at least one block per group")


def bottom_up_grouping(overlap: np.ndarray, budget: int) -> Grouping:
    """The paper's bottom-up heuristic (Figure 6).

    Starting from an empty partition, repeatedly merge the remaining block
    whose addition increases the partition's union vector the least (the
    lowest index on a tie); when the partition reaches ``budget`` blocks (or
    blocks run out), close it and start a new one.

    Range-partitioned blocks repeat their overlap vectors, so a step scans
    the distinct vectors that still have blocks (Python-int bitsets), not
    the blocks.  When the cheapest adds nothing to the union, every tied
    vector lies inside it, so the group takes their lowest blocks at once, as
    many as it has room for.  On the layered benchmark's matrices (~10
    distinct vectors in ~100 rows) that is 0.11-0.15 ms per matrix on a
    2-CPU box, against 0.6-1.4 ms scanning every block; 400 × 64 with every
    row distinct takes about 7 ms.
    """
    _check_inputs(overlap, budget)
    packed = np.packbits(np.ascontiguousarray(overlap, dtype=bool), axis=1)
    data, width = packed.tobytes(), packed.shape[1]
    rows: dict[bytes, list[int]] = {}
    for index in range(overlap.shape[0]):
        rows.setdefault(data[index * width : (index + 1) * width], []).append(index)
    # Each distinct vector's blocks in ascending order, ``done`` of them
    # grouped; ``live`` orders the vectors with blocks left by their lowest.
    blocks = {int.from_bytes(row, "big"): indices for row, indices in rows.items()}
    done = dict.fromkeys(blocks, 0)
    live = list(blocks)
    groups: list[list[int]] = []
    reads: list[int] = []
    current: list[int] = []
    union = union_count = 0
    while live:
        best_position, best_delta = 0, (live[0] | union).bit_count()
        for position in range(1, len(live)):
            delta_here = (live[position] | union).bit_count()
            if delta_here < best_delta:
                best_position, best_delta = position, delta_here
        if best_delta > union_count:
            best = live[best_position]
            current.append(blocks[best][done[best]])
            done[best] += 1
            union, union_count = union | best, best_delta
            partial = done[best] < len(blocks[best])
            if not partial:
                del live[best_position]
        else:
            # The tied vectors leave the union as it is: take the lowest of
            # their blocks, as many as the group has room for.
            room = budget - len(current)
            inside = [vector for vector in live if vector | union == union]
            pending = (blocks[vector][done[vector] : done[vector] + room] for vector in inside)
            taken = sorted(chain.from_iterable(pending))[:room]
            current.extend(taken)
            for vector in inside:
                done[vector] = bisect_right(blocks[vector], taken[-1], done[vector])
            live = [vector for vector in live if done[vector] < len(blocks[vector])]
            partial = any(done[vector] < len(blocks[vector]) for vector in inside)
        if len(current) == budget or not live:
            groups.append(current)
            reads.append(union_count)
            current, union, union_count = [], 0, 0
            if partial:
                # A partly taken vector has a new lowest block; until now it
                # lay inside the union, where only bulk takes read it.
                live.sort(key=lambda vector: blocks[vector][done[vector]])
    return Grouping(groups=groups, probe_reads_per_group=reads)


def greedy_grouping(overlap: np.ndarray, budget: int) -> Grouping:
    """The approximate algorithm of Figure 5.

    Figure 5 asks, per iteration, for the set of at most ``B`` remaining
    blocks with the smallest union — itself an NP-hard subproblem
    (Section 4.1.4).  This realization seeds each group with the remaining
    block of smallest individual δ and grows it greedily, which matches the
    paper's described behaviour while staying polynomial.
    """
    _check_inputs(overlap, budget)
    num_blocks = overlap.shape[0]
    remaining = np.ones(num_blocks, dtype=bool)
    groups: list[list[int]] = []

    while remaining.any():
        candidate_indices = np.flatnonzero(remaining)
        seed = candidate_indices[int(np.argmin(overlap[candidate_indices].sum(axis=1)))]
        group = [int(seed)]
        group_union = overlap[seed].copy()
        remaining[seed] = False
        while len(group) < budget and remaining.any():
            candidate_indices = np.flatnonzero(remaining)
            new_deltas = (overlap[candidate_indices] | group_union).sum(axis=1)
            best = candidate_indices[int(np.argmin(new_deltas))]
            group.append(int(best))
            group_union |= overlap[best]
            remaining[best] = False
        groups.append(group)

    grouping = Grouping(groups=groups)
    grouping.probe_reads_per_group = grouping_cost(overlap, groups)
    return grouping


def first_fit_grouping(overlap: np.ndarray, budget: int) -> Grouping:
    """Naive baseline: group blocks in storage order, ``budget`` at a time."""
    _check_inputs(overlap, budget)
    num_blocks = overlap.shape[0]
    groups = [
        list(range(start, min(start + budget, num_blocks)))
        for start in range(0, num_blocks, budget)
    ]
    grouping = Grouping(groups=groups)
    grouping.probe_reads_per_group = grouping_cost(overlap, groups)
    return grouping


_GROUPING_CACHE: dict[tuple, Grouping] = {}
_GROUPING_CACHE_LIMIT = 512


def group_blocks(overlap: np.ndarray, budget: int) -> Grouping:
    """The planner's grouping: :func:`bottom_up_grouping`, memoized.

    Bottom-up grouping is a deterministic pure function of the overlap
    matrix, and the optimizer costs both build directions of every
    hyper-join every query, while consecutive queries from the same
    template reproduce the same overlap pattern.  The memo keys on the
    matrix itself: its shape (packing pads each row to whole bytes) and its
    rows packed to bits, so equal matrices share an entry whatever array
    holds them.  It is process-wide and emptied when it holds 512 entries.
    Callers must treat the returned :class:`Grouping` as read-only.

    Args:
        overlap: The boolean overlap matrix ``V``.
        budget: Maximum blocks per group (the paper's ``B``).
    """
    _check_inputs(overlap, budget)
    key = (overlap.shape, np.packbits(overlap, axis=1).tobytes(), budget)
    cached = _GROUPING_CACHE.get(key)
    if cached is None:
        if len(_GROUPING_CACHE) >= _GROUPING_CACHE_LIMIT:
            _GROUPING_CACHE.clear()
        cached = _GROUPING_CACHE[key] = bottom_up_grouping(overlap, budget)
    return cached
