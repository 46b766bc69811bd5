"""Hyper-join (Section 4.1).

Hyper-join avoids shuffling: it groups the build-side blocks into
memory-sized partitions (one hash table per group), and probes each hash
table with exactly the probe-side blocks whose join-attribute range overlaps
the group.  The cost is ``blocks(R) + C_HyJ · blocks(S)`` (equation (2)),
where ``C_HyJ`` is the average number of times a needed probe block is read —
1.0 for perfectly co-partitioned tables, larger when block ranges overlap
more widely.

This module plans that schedule; the task engine executes it, one
``HYPER_GROUP`` task per group (:mod:`repro.exec.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import PlanningError
from ..common.lru import BoundedLRU
from ..storage.dfs import DistributedFileSystem
from .grouping import Grouping, average_probe_multiplicity, group_blocks
from .overlap import Range, compute_overlap_matrix, patch_overlap_matrix

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..storage.table import StoredTable


@dataclass
class HyperJoinPlan:
    """A fully determined hyper-join schedule.

    Attributes:
        build_block_ids: Non-empty build-side blocks, in overlap-matrix order.
        probe_block_ids: Non-empty probe-side blocks, in overlap-matrix order.
        overlap: The boolean overlap matrix between the two block lists;
            read-only, because cached plans share it.
        grouping: The chosen grouping of build-side blocks.
        probe_multiplicity: Estimated ``C_HyJ`` for this schedule.
    """

    build_block_ids: list[int]
    probe_block_ids: list[int]
    overlap: np.ndarray
    grouping: Grouping
    probe_multiplicity: float

    @property
    def estimated_probe_reads(self) -> int:
        """Total probe-block reads the schedule will perform."""
        return self.grouping.total_probe_reads


def plan_hyper_join(
    dfs: DistributedFileSystem,
    build_block_ids: list[int],
    probe_block_ids: list[int],
    build_column: str,
    probe_column: str,
    buffer_blocks: int,
) -> HyperJoinPlan:
    """Compute the hyper-join schedule (overlap matrix + grouping).

    Empty blocks and blocks lacking join-attribute metadata are dropped —
    they cannot contribute join matches and incur no I/O.

    Args:
        dfs: The DFS holding both relations' blocks.
        build_block_ids: Candidate build-side blocks (hash tables are built
            over these).
        probe_block_ids: Candidate probe-side blocks.
        build_column / probe_column: Join attribute on each side.
        buffer_blocks: Memory budget ``B`` (build blocks per hash table).
    """
    return _plan_cold(
        dfs, build_block_ids, probe_block_ids, build_column, probe_column, buffer_blocks
    ).plan


@dataclass
class _CacheEntry:
    """One memoized schedule plus the state needed to patch it later.

    ``build_ranges`` / ``probe_ranges`` map each *usable* block id, in
    overlap-matrix order, to the join-attribute range it had when the plan
    was computed.  Both are owned by the entry — upgrades build fresh ones,
    never aliasing a plan handed to a caller.
    """

    build_ranges: dict[int, Range]
    probe_ranges: dict[int, Range]
    plan: HyperJoinPlan


def _plan_cold(
    dfs: DistributedFileSystem,
    build_block_ids: list[int],
    probe_block_ids: list[int],
    build_column: str,
    probe_column: str,
    buffer_blocks: int,
) -> _CacheEntry:
    """Peek every candidate once, keep the usable ones, and plan over them."""
    if buffer_blocks < 1:
        raise PlanningError("buffer_blocks must be at least 1")

    def usable(block_ids: list[int], column: str) -> dict[int, Range]:
        ranges: dict[int, Range] = {}
        for block_id in block_ids:
            found = dfs.peek_range(block_id, column)
            if found is not None:
                ranges[block_id] = found
        return ranges

    build_ranges = usable(build_block_ids, build_column)
    probe_ranges = usable(probe_block_ids, probe_column)
    overlap = compute_overlap_matrix(list(build_ranges.values()), list(probe_ranges.values()))
    return _make_entry(build_ranges, probe_ranges, overlap, buffer_blocks)


def _make_entry(
    build_ranges: dict[int, Range],
    probe_ranges: dict[int, Range],
    overlap: np.ndarray,
    buffer_blocks: int,
) -> _CacheEntry:
    """Group ``overlap`` (the matrix between the two sides' usable blocks)
    into the schedule that cold plans and upgrades alike return."""
    overlap.setflags(write=False)  # cached and shared: never patched in place
    if build_ranges:
        grouping = group_blocks(overlap, buffer_blocks)
        multiplicity = average_probe_multiplicity(overlap, grouping)
    else:
        grouping, multiplicity = Grouping(groups=[]), 1.0
    plan = HyperJoinPlan(
        build_block_ids=list(build_ranges),
        probe_block_ids=list(probe_ranges),
        overlap=overlap,
        grouping=grouping,
        probe_multiplicity=multiplicity,
    )
    return _CacheEntry(build_ranges=build_ranges, probe_ranges=probe_ranges, plan=plan)


class HyperPlanCache:
    """Bounded LRU memo of hyper-join schedules, keyed on partition-state epochs.

    The optimizer costs *both* build directions of every hyper-join on every
    query, and repeated-template workloads reproduce the same relevant block
    sets query after query once adaptation has converged.  At a fixed
    partition state the schedule is a pure function of the block-id lists and
    the planning knobs, so entries are keyed on::

        (state_token, build_ids, probe_ids, build_col, probe_col, buffer_blocks)

    where ``state_token`` carries the ``(table, epoch)`` pairs of both sides.
    Any table mutation bumps its epoch and thereby orphans every entry that
    mentions it.  An orphan is not abandoned: the cache finds the newest
    entry for the same join template, asks both tables which blocks
    :meth:`~repro.storage.table.StoredTable.changed_since` that entry's
    epochs, and **patches** the schedule — re-peeking only changed blocks,
    rewriting only changed overlap rows/columns, and re-grouping through
    the matrix-keyed memo — in O(changed × blocks) instead of recomputing
    in O(blocks²).  The patched plan is bit-identical to a cold recompute by
    construction; when it would keep no overlap row and no column, the
    cache plans cold instead.

    Cached plans are shared and must be treated as read-only by consumers
    (they already are: compilation and execution only read them).  Patched
    plans are always *new* ``HyperJoinPlan`` objects with freshly allocated
    id lists and overlap matrices, and every overlap matrix is read-only
    from the moment its entry is built — an in-place patch of an array a
    caller already holds raises at the write.

    The cache is held per optimizer instance, never globally — block ids are
    only unique within one DFS, and test suites run many engines side by
    side.
    """

    #: Entries kept (least recently used evicted first).
    CAPACITY = 256

    def __init__(self) -> None:
        self._cache: BoundedLRU[tuple, _CacheEntry] = BoundedLRU(capacity=self.CAPACITY)
        #: join template -> full key of the newest entry for that template,
        #: the starting point for upgrades.
        self._history: dict[tuple, tuple] = {}
        self._upgrades = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Lookups that had to plan from scratch or patch a stale entry."""
        return self._cache.misses

    @property
    def upgrades(self) -> int:
        """Misses resolved by patching a stale entry (no cold replan)."""
        return self._upgrades

    def get_or_plan(
        self,
        build_table: "StoredTable",
        probe_table: "StoredTable",
        build_block_ids: list[int],
        probe_block_ids: list[int],
        build_column: str,
        probe_column: str,
        buffer_blocks: int,
    ) -> HyperJoinPlan:
        """Return the cached schedule for this key, upgrading or planning on a miss."""
        state_token = (build_table.name, build_table.epoch, probe_table.name, probe_table.epoch)
        key = (
            state_token,
            tuple(build_block_ids),
            tuple(probe_block_ids),
            build_column,
            probe_column,
            buffer_blocks,
        )
        template = (state_token[0], state_token[2], build_column, probe_column, buffer_blocks)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._upgrade(
                key, template, build_table, probe_table, build_block_ids, probe_block_ids
            )
            if entry is not None:
                self._upgrades += 1
            else:
                entry = _plan_cold(
                    build_table.dfs,
                    build_block_ids,
                    probe_block_ids,
                    build_column,
                    probe_column,
                    buffer_blocks,
                )
            self._cache.put(key, entry)
        self._history[template] = key
        return entry.plan

    # ------------------------------------------------------------------ #
    # Upgrades
    # ------------------------------------------------------------------ #
    def _upgrade(
        self,
        key: tuple,
        template: tuple,
        build_table: "StoredTable",
        probe_table: "StoredTable",
        build_block_ids: list[int],
        probe_block_ids: list[int],
    ) -> _CacheEntry | None:
        """Patch the newest same-template entry up to ``key``'s state, if
        it keeps anything of it."""
        old_key = self._history.get(template)
        if old_key is None:
            return None
        old = self._cache.peek(old_key)
        if old is None:
            return None
        old_token = old_key[0]
        build_ranges, kept_build = self._usable_via_delta(
            build_table, old_token[1], build_block_ids, key[3], set(old_key[1]), old.build_ranges
        )
        probe_ranges, kept_probe = self._usable_via_delta(
            probe_table, old_token[3], probe_block_ids, key[4], set(old_key[2]), old.probe_ranges
        )

        if (
            len(kept_build) == len(build_ranges)
            and list(build_ranges) == old.plan.build_block_ids
            and len(kept_probe) == len(probe_ranges)
            and list(probe_ranges) == old.plan.probe_block_ids
        ):
            # Nothing this join reads actually changed — rebind the old
            # entry (shared read-only state) under the new epoch key.
            return old
        if not kept_build and not kept_probe:
            return None  # nothing kept: plan cold

        overlap = patch_overlap_matrix(
            old.plan.overlap,
            list(build_ranges.values()),
            list(probe_ranges.values()),
            kept_build,
            kept_probe,
        )
        return _make_entry(build_ranges, probe_ranges, overlap, key[5])

    def _usable_via_delta(
        self,
        table: "StoredTable",
        old_epoch: int,
        candidate_ids: list[int],
        column: str,
        old_candidates: set[int],
        old_ranges: dict[int, Range],
    ) -> tuple[dict[int, Range], list[tuple[int, int]]]:
        """One side's usable-block filter, peeking only blocks that changed
        since ``old_epoch``.

        A candidate examined for the old entry and unchanged since kept its
        contents, so its usability verdict and cached range are reused;
        everything else (new candidates, changed blocks) goes through the
        same per-block filter as a cold plan.  Returns the usable ids with
        their ranges, and ``(new_index, old_index)`` pairs for reused
        rows/columns.
        """
        dfs, changed_since = table.dfs, table.changed_since
        old_index = {block_id: i for i, block_id in enumerate(old_ranges)}
        usable: dict[int, Range] = {}
        kept: list[tuple[int, int]] = []
        for block_id in candidate_ids:
            if block_id in old_candidates and not changed_since(block_id, old_epoch):
                # Examined before: an empty or range-less block still is.
                found = old_ranges.get(block_id)
                if found is not None:
                    kept.append((len(usable), old_index[block_id]))
            else:
                found = dfs.peek_range(block_id, column)
            if found is not None:
                usable[block_id] = found
        return usable, kept
