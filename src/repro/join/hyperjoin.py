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

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import PlanningError
from ..common.lru import BoundedLRU
from ..storage.dfs import DistributedFileSystem
from .grouping import Grouping, average_probe_multiplicity, group_blocks, matrix_row_digests
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
    algorithm: str = "bottom_up",
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
        algorithm: Grouping algorithm name (see ``repro.join.grouping``).
    """
    if buffer_blocks < 1:
        raise PlanningError("buffer_blocks must be at least 1")

    def usable(block_ids: list[int], column: str) -> tuple[list[int], list[tuple[float, float]]]:
        ids: list[int] = []
        ranges: list[tuple[float, float]] = []
        for block_id in block_ids:
            block = dfs.peek_block(block_id)
            found = block.find_range(column) if block.num_rows else None
            if found is None:
                continue
            ids.append(block_id)
            ranges.append(found)
        return ids, ranges

    build_ids, build_ranges = usable(build_block_ids, build_column)
    probe_ids, probe_ranges = usable(probe_block_ids, probe_column)

    overlap = compute_overlap_matrix(build_ranges, probe_ranges)
    overlap.setflags(write=False)  # cached and shared: never patched in place
    grouping = group_blocks(overlap, buffer_blocks, algorithm) if build_ids else Grouping(groups=[])
    multiplicity = average_probe_multiplicity(overlap, grouping) if build_ids else 1.0
    return HyperJoinPlan(
        build_block_ids=build_ids,
        probe_block_ids=probe_ids,
        overlap=overlap,
        grouping=grouping,
        probe_multiplicity=multiplicity,
    )


@dataclass
class _CacheEntry:
    """One memoized schedule plus the state needed to patch it later.

    ``build_ranges`` / ``probe_ranges`` map each *usable* block id to the
    join-attribute range it had when the plan was computed; ``row_digests``
    are the per-row content digests of ``plan.overlap`` (the grouping memo
    key material).  All containers are owned by the entry — upgrades build
    fresh ones, never aliasing a plan handed to a caller.
    """

    build_ranges: dict[int, Range]
    probe_ranges: dict[int, Range]
    row_digests: list[bytes]
    plan: HyperJoinPlan


class HyperPlanCache:
    """Bounded LRU memo of hyper-join schedules, keyed on partition-state epochs.

    The optimizer costs *both* build directions of every hyper-join on every
    query, and repeated-template workloads reproduce the same relevant block
    sets query after query once adaptation has converged.  At a fixed
    partition state the schedule is a pure function of the block-id lists and
    the planning knobs, so entries are keyed on::

        (state_token, build_ids, probe_ids, build_col, probe_col,
         buffer_blocks, algorithm)

    where ``state_token`` carries the ``(table, epoch)`` pairs of both sides.
    Any table mutation bumps its epoch and thereby orphans every entry that
    mentions it.  An orphan is not abandoned: the cache finds the newest
    entry for the same join template, asks both tables which blocks
    :meth:`~repro.storage.table.StoredTable.changed_since` that entry's
    epochs, and **patches** the schedule — re-peeking only changed blocks,
    rewriting only changed overlap rows/columns, and re-grouping through
    the digest-keyed memo — in O(changed × blocks) instead of recomputing
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

    def __init__(self, capacity: int = 256) -> None:
        self._cache: BoundedLRU[tuple, _CacheEntry] = BoundedLRU(capacity=capacity)
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
        algorithm: str,
    ) -> HyperJoinPlan:
        """Return the cached schedule for this key, upgrading or planning on a miss."""
        dfs = build_table.dfs
        state_token = (build_table.name, build_table.epoch, probe_table.name, probe_table.epoch)
        key = (
            state_token,
            tuple(build_block_ids),
            tuple(probe_block_ids),
            build_column,
            probe_column,
            buffer_blocks,
            algorithm,
        )
        template = (
            state_token[0],
            state_token[2],
            build_column,
            probe_column,
            buffer_blocks,
            algorithm,
        )
        entry = self._cache.get(key)
        if entry is None:
            entry = self._upgrade(
                key, template, build_table, probe_table, build_block_ids, probe_block_ids
            )
            if entry is not None:
                self._upgrades += 1
            else:
                plan = plan_hyper_join(
                    dfs,
                    build_block_ids,
                    probe_block_ids,
                    build_column,
                    probe_column,
                    buffer_blocks,
                    algorithm,
                )
                entry = _CacheEntry(
                    build_ranges={
                        block_id: dfs.peek_block(block_id).range_of(build_column)
                        for block_id in plan.build_block_ids
                    },
                    probe_ranges={
                        block_id: dfs.peek_block(block_id).range_of(probe_column)
                        for block_id in plan.probe_block_ids
                    },
                    row_digests=matrix_row_digests(plan.overlap),
                    plan=plan,
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
        build_ids, build_ranges, kept_build = self._usable_via_delta(
            build_table, old_token[1], build_block_ids, key[3], set(old_key[1]),
            old.plan.build_block_ids, old.build_ranges,
        )
        probe_ids, probe_ranges, kept_probe = self._usable_via_delta(
            probe_table, old_token[3], probe_block_ids, key[4], set(old_key[2]),
            old.plan.probe_block_ids, old.probe_ranges,
        )

        build_same = (
            len(kept_build) == len(build_ids)
            and build_ids == old.plan.build_block_ids
        )
        probe_same = (
            len(kept_probe) == len(probe_ids)
            and probe_ids == old.plan.probe_block_ids
        )
        if build_same and probe_same:
            # Nothing this join reads actually changed — rebind the old
            # entry (shared read-only state) under the new epoch key.
            return old
        if not kept_build and not kept_probe:
            return None  # nothing kept: plan cold

        buffer_blocks, algorithm = key[5], key[6]
        overlap = patch_overlap_matrix(
            old.plan.overlap, build_ranges, probe_ranges, kept_build, kept_probe
        )
        overlap.setflags(write=False)
        if probe_same:
            # Probe columns are untouched, so a kept build row's bytes — and
            # therefore its digest — are unchanged; hash only fresh rows.
            contiguous = np.ascontiguousarray(overlap, dtype=bool)
            kept_rows = dict(kept_build)
            row_digests = [
                old.row_digests[kept_rows[row]]
                if row in kept_rows
                else hashlib.blake2b(
                    contiguous[row].tobytes(), digest_size=16
                ).digest()
                for row in range(len(build_ids))
            ]
        else:
            row_digests = matrix_row_digests(overlap)
        if build_ids:
            grouping = group_blocks(
                overlap, buffer_blocks, algorithm, row_digests=row_digests
            )
            multiplicity = average_probe_multiplicity(overlap, grouping)
        else:
            grouping = Grouping(groups=[])
            multiplicity = 1.0
        plan = HyperJoinPlan(
            build_block_ids=list(build_ids),
            probe_block_ids=list(probe_ids),
            overlap=overlap,
            grouping=grouping,
            probe_multiplicity=multiplicity,
        )
        return _CacheEntry(
            build_ranges=dict(zip(build_ids, build_ranges)),
            probe_ranges=dict(zip(probe_ids, probe_ranges)),
            row_digests=row_digests,
            plan=plan,
        )

    def _usable_via_delta(
        self,
        table: "StoredTable",
        old_epoch: int,
        candidate_ids: list[int],
        column: str,
        old_candidates: set[int],
        old_usable_ids: list[int],
        old_ranges: dict[int, Range],
    ) -> tuple[list[int], list[Range], list[tuple[int, int]]]:
        """One side's usable-block filter, peeking only blocks that changed
        since ``old_epoch``.

        A candidate examined for the old entry and unchanged since kept its
        contents, so its usability verdict and cached range are reused;
        everything else (new candidates, changed blocks) goes through the
        same peek-and-filter as ``plan_hyper_join``.  Returns the usable
        ids, their ranges, and ``(new_index, old_index)`` pairs for reused
        rows/columns.
        """
        dfs, changed_since = table.dfs, table.changed_since
        old_index = {block_id: i for i, block_id in enumerate(old_usable_ids)}
        ids: list[int] = []
        ranges: list[Range] = []
        kept: list[tuple[int, int]] = []
        for block_id in candidate_ids:
            if block_id in old_candidates and not changed_since(block_id, old_epoch):
                cached_range = old_ranges.get(block_id)
                if cached_range is None:
                    continue  # examined before: empty or range-less, still is
                kept.append((len(ids), old_index[block_id]))
                ids.append(block_id)
                ranges.append(cached_range)
            else:
                block = dfs.peek_block(block_id)
                found = block.find_range(column) if block.num_rows else None
                if found is None:
                    continue
                ids.append(block_id)
                ranges.append(found)
        return ids, ranges, kept
