"""Tests for the multi-core execution backend (repro.parallel).

The contract under test: the parallel backend executes compiled task
schedules on the parent and real helper processes, with block columns
shipped to the helpers through shared-memory segments, and produces results
**bit-identical** to the in-process task backend — same ``output_rows``,
same ``fingerprint()``.  Agreement over adaptive workloads that repartition
tables (epoch bumps) mid-stream is checked across the whole configuration
matrix in ``tests/test_matrix.py``.  Here: the split (the parent runs each
stage's heaviest machine; a stage on one machine ships nothing), the
shared-memory slab (only the columns the helpers' work reads are copied,
stale slots re-copied on demand, compaction, a stage too big for any segment
failing typed, the hand-off proportional to the blocks read), segment
lifecycle (no leaks after close, crashed workers recovered), failed stages (a
helper that dies mid-stage costs one pool restart; a second death or a task
error — including a write to a block, which is read-only in every process —
fails the query loudly and leaves the session correct), the wall-clock
reporting fields that fingerprints must ignore, and attached views that are
read-only.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.cluster import Cluster
from repro.common.predicates import between
from repro.common.query import join_query, scan_query
from repro.common.schema import DataType, Schema
from repro.core import AdaptDBConfig
from repro.exec import TaskKind, kernels_tasks
from repro.exec.kernels_tasks import BlockInput, TaskOutcome, TaskWork
from repro.parallel import ParallelBackend, WorkerDied, WorkerPool, pool as pool_module
from repro.parallel.backend import heaviest_machine
from repro.common.errors import ExecutionError, StorageError
from repro.common.rng import make_rng
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage import shared_memory
from repro.storage.dfs import DistributedFileSystem
from repro.storage.shared_memory import (
    SharedBlockStore,
    SharedBlockView,
    SharedSegmentCache,
    _aligned,
    _attach_untracked,
)
from repro.storage.table import ColumnTable, StoredTable
from repro.testing import fig08_scan_queries, fig13_join_queries
from repro.workloads import EVALUATED_TEMPLATES, switching_workload


def parallel_config(**overrides) -> AdaptDBConfig:
    settings = dict(
        rows_per_block=512,
        buffer_blocks=4,
        window_size=10,
        seed=3,
        num_machines=4,
        num_workers=2,
        execution_backend="parallel",
    )
    settings.update(overrides)
    return AdaptDBConfig(**settings)


def make_session(tpch_tables, **overrides) -> Session:
    session = Session(config=parallel_config(**overrides))
    for name in ("lineitem", "orders", "part"):
        session.load_table(tpch_tables[name])
    return session


@pytest.fixture
def par_session(tpch_tables):
    session = make_session(tpch_tables)
    yield session
    session.close()


def assert_backends_agree(session: Session, query, adapt: bool = True) -> tuple:
    """Plan once, execute on both backends, demand bit-identical results.

    Returns ``(tasks_result, parallel_result)`` for extra assertions.
    """
    physical = session.lower(session.plan(query, adapt=adapt))
    session.use_backend("tasks")
    tasks_result = session.execute(physical)
    session.use_backend("parallel")
    parallel_result = session.execute(physical)
    assert parallel_result.output_rows == tasks_result.output_rows
    assert parallel_result.fingerprint() == tasks_result.fingerprint()
    return tasks_result, parallel_result


def pinned_segments(backend: ParallelBackend) -> list[str]:
    store = backend.store
    return [store.segment_of(name) for name in store.pinned_tables]


def segment_exists(name: str) -> bool:
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers by fork inheritance",
)


# --------------------------------------------------------------------- #
# Bit-identical agreement with the in-process task backend
# --------------------------------------------------------------------- #
class TestAgreement:
    """Agreement over adaptive workloads is ``tests/test_matrix.py``'s job;
    these pin the pool's own knobs and the wall-clock fields."""

    def test_num_workers_one_equivalent(self, tpch_tables):
        session = make_session(tpch_tables, num_workers=1)
        try:
            backend = session.backends["parallel"]
            assert backend.num_workers == 1
            for query in fig13_join_queries(1) + fig08_scan_queries(1):
                assert_backends_agree(session, query)
            assert backend.pool is not None
            assert backend.pool.num_workers == 1
        finally:
            session.close()

    def test_spawn_start_method_smoke(self, tpch_tables):
        session = make_session(tpch_tables)
        backend = session.backends["parallel"]
        backend._pool = WorkerPool(backend.num_workers, "spawn")
        try:
            assert_backends_agree(
                session,
                scan_query("lineitem", [between("l_quantity", 5, 25)]),
            )
            assert_backends_agree(
                session,
                join_query("lineitem", "orders", "l_orderkey", "o_orderkey"),
            )
            assert session.backends["parallel"].pool.start_method == "spawn"
        finally:
            session.close()

    def test_wall_clock_fields_reported_but_not_fingerprinted(self, par_session):
        query = scan_query("lineitem", [between("l_quantity", 10, 30)])
        tasks_result, parallel_result = assert_backends_agree(par_session, query)
        # The task backend never measures wall time; the parallel backend
        # always does — yet the fingerprints above already compared equal.
        assert tasks_result.wall_seconds == 0.0
        assert tasks_result.machine_wall_seconds == []
        assert parallel_result.wall_seconds > 0.0
        assert len(parallel_result.machine_wall_seconds) == 4
        assert all(s >= 0.0 for s in parallel_result.machine_wall_seconds)
        assert sum(parallel_result.machine_wall_seconds) > 0.0


class TestBufferCounts:
    @pytest.mark.parametrize("force_join_method", [None, "shuffle"])
    def test_hits_and_faults_equal_tasks_under_a_buffer_that_never_evicts(
        self, tpch_tables, tmp_path, force_join_method
    ):
        """Each shipped work reads its blocks before the pin does, as the
        inline runner would, so a reopened (cold) session whose buffer never
        evicts counts the same hits and faults per query on both backends.
        A query's counts are the buffer's own counters differenced across
        ``run()``, so planning and lowering are counted too (under forced
        shuffle joins, lowering's pre-read faults key columns in)."""
        queries = switching_workload(EVALUATED_TEMPLATES, 2, make_rng(5))
        counts, fingerprints = {}, {}
        for backend in ("tasks", "parallel"):
            root = tmp_path / backend
            session = Session(config=parallel_config(
                execution_backend=backend, persistence="mmap",
                storage_root=str(root), buffer_bytes=None,
                force_join_method=force_join_method,
            ))
            for name in ("lineitem", "orders", "customer", "part", "supplier"):
                session.load_table(tpch_tables[name])
            session.checkpoint()
            session.close()
            reopened = Session.open(root)
            buffer = reopened.persist.buffer
            counts[backend], fingerprints[backend] = [], []
            try:
                for query in queries:
                    before = (buffer.hits, buffer.faults)
                    result = reopened.run(query)
                    counts[backend].append(
                        (buffer.hits - before[0], buffer.faults - before[1])
                    )
                    fingerprints[backend].append(result.fingerprint())
                assert buffer.evictions == 0
            finally:
                reopened.close()
        assert fingerprints["parallel"] == fingerprints["tasks"]
        assert counts["parallel"] == counts["tasks"]
        hits, faults = (sum(column) for column in zip(*counts["tasks"]))
        assert hits > 0 and faults > 0


# --------------------------------------------------------------------- #
# The parent runs each stage's heaviest machine
# --------------------------------------------------------------------- #
def machine_reads(session: Session) -> list[tuple[int, int]]:
    return [
        (machine.local_reads, machine.remote_reads) for machine in session.cluster.machines
    ]


class TestParentRunsAMachine:
    def test_a_stage_on_one_machine_ships_nothing(self, tpch_tables, monkeypatch):
        """A hyper join of one group is one task on one machine: the parent
        runs it, and nothing is pinned, copied or submitted."""
        session = make_session(tpch_tables)
        store = session.backends["parallel"].store
        submitted = recorded_submits(monkeypatch)
        try:
            session.run(scan_query("lineitem", [between("l_quantity", 1, 50)]), adapt=False)
            copied, submitted[:] = store.copied_bytes, []
            join = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
            _, parallel_result = assert_backends_agree(session, join, adapt=False)
            machines = {machine_id for machine_id, _ in parallel_result.schedule.placements()}
            assert len(machines) == 1
            assert submitted == []
            assert store.copied_bytes == copied
            assert parallel_result.machine_wall_seconds[machines.pop()] > 0.0
        finally:
            session.close()

    def test_a_shuffle_join_runs_on_the_parent_and_a_helper(self, tpch_tables, monkeypatch):
        """A 4-machine shuffle join whose map stage spans several machines:
        the parent runs the heaviest machine's maps and reduce, the helpers
        the others, and answers and per-machine reads equal ``tasks``'s."""
        session = make_session(tpch_tables, force_join_method="shuffle")
        submitted = recorded_submits(monkeypatch)
        here, run_here = [], session.executor.run_here

        def recording(work):
            here.append(work)
            return run_here(work)

        monkeypatch.setattr(session.executor, "run_here", recording)
        try:
            query = join_query(
                "lineitem", "orders", "l_orderkey", "o_orderkey",
                {"lineitem": [between("l_quantity", 5, 25)]},
            )
            physical = session.lower(session.plan(query, adapt=False))
            counts, fingerprints = [], []
            for backend in ("tasks", "parallel"):
                session.use_backend(backend)
                here[:] = []
                result = session.execute(physical)  # resets the read counters first
                counts.append(machine_reads(session))
                fingerprints.append(result.fingerprint())
            assert fingerprints[0] == fingerprints[1]
            assert counts[0] == counts[1] and sum(map(sum, counts[1])) > 0
            placements = result.schedule.placements()
            assert len({m for m, t in placements if t.kind is TaskKind.SHUFFLE_MAP}) > 1
            # Per stage, one machine runs in the parent, and none of its
            # works is shipped.
            for kind in (TaskKind.SHUFFLE_MAP, TaskKind.SHUFFLE_REDUCE):
                assert len({work.machine_id for work in here if work.kind is kind}) == 1
                assert any(work.kind is kind for work in submitted)
            assert {(w.kind, w.machine_id) for w in here}.isdisjoint(
                (w.kind, w.machine_id) for w in submitted
            )
        finally:
            session.close()

    def test_the_heaviest_machine_reads_the_most(self):
        def work(task_id, machine_id, blocks=0, keys=0):
            inputs = (BlockInput("t", tuple(range(blocks)), ()),) if blocks else ()
            arrays = {"build_keys": np.arange(keys), "probe_keys": np.arange(keys)} if keys else {}
            kind = TaskKind.SCAN if blocks else TaskKind.SHUFFLE_REDUCE
            return TaskWork(task_id, kind, machine_id, inputs, **arrays)

        assert heaviest_machine([work(0, 0, 2), work(1, 1, 3), work(2, 0, 2)]) == 0
        assert heaviest_machine([work(0, 2, 3), work(1, 1, 3)]) == 1  # a tie: lowest id
        assert heaviest_machine([work(0, 0, keys=5), work(1, 3, keys=9)]) == 3


# --------------------------------------------------------------------- #
# The slab: a per-table cache of block copies, invalidated by change stamps
# --------------------------------------------------------------------- #
def lineitem_of(tpch_tables, rows_per_block: int = 512):
    """A stored ``lineitem`` (blocks of uneven sizes) outside any parallel session."""
    session = Session(AdaptDBConfig(rows_per_block=rows_per_block, seed=3))
    return session.load_table(tpch_tables["lineitem"])


def adaptive_stream(count: int) -> list:
    """A template-switching TPC-H stream that keeps repartitioning."""
    per_template = -(-count // len(EVALUATED_TEMPLATES))
    return switching_workload(list(EVALUATED_TEMPLATES), per_template, make_rng(1))[:count]


def full_session(tpch_tables, **overrides) -> Session:
    session = Session(config=parallel_config(**overrides))
    for table in tpch_tables.values():
        session.load_table(table)
    return session


def born_small(store: SharedBlockStore, table, monkeypatch) -> str:
    """Give ``table`` a slab a twentieth of its size — what a table that grew
    would find — so that a stage reading more than that has to replace it."""
    monkeypatch.setattr(shared_memory, "_HEADROOM", -0.95)
    store.pin_table(table, table.non_empty_block_ids()[:1], table.schema.column_names[:1])
    monkeypatch.undo()
    return store.segment_of(table.name)


def recorded_pins(store: SharedBlockStore, monkeypatch) -> list:
    """Every pin ``store`` returns from now on, in order."""
    pin_table, pins = store.pin_table, []

    def recording(table, block_ids, columns):
        pins.append(pin_table(table, block_ids, columns))
        return pins[-1]

    monkeypatch.setattr(store, "pin_table", recording)
    return pins


def recorded_submits(monkeypatch) -> list[TaskWork]:
    """Every work any pool is handed from now on, in order."""
    submit, works = WorkerPool.submit, []

    def recording(pool, worker_index, work):
        works.append(work)
        submit(pool, worker_index, work)

    monkeypatch.setattr(WorkerPool, "submit", recording)
    return works


def evicted_blocks(session: Session, monkeypatch) -> set[int]:
    """The ids of the blocks ``session``'s buffer evicts from now on (none
    on the memory tier)."""
    evicted: set[int] = set()
    if session.persist is not None:
        buffer = session.persist.buffer
        evict = buffer._evict

        def recording(block_id):
            evicted.add(block_id)
            evict(block_id)

        monkeypatch.setattr(buffer, "_evict", recording)
    return evicted


def slot_bytes(block, names) -> int:
    """What copying ``names`` of ``block`` into a slab costs."""
    arrays = block.arrays(list(names))
    return sum(_aligned(arrays[name].nbytes) for name in names)


class TestSlab:
    def test_reused_extent_is_read_with_the_new_rows(self, tpch_tables, monkeypatch):
        """A worker that cached views of every block reads each block's
        current rows after the parent rewrote two of them into a slab with
        no room to spare: the tail reached the end, the live extents slid
        down, and views keyed by block id alone (or by the old slot) would
        serve another block's bytes."""
        stored = lineitem_of(tpch_tables)
        names = stored.schema.column_names
        block_ids = stored.non_empty_block_ids()
        sizes = {b: stored.dfs.peek_block(b).num_rows for b in block_ids}
        first = min(sizes, key=sizes.get)
        second = max(sizes, key=sizes.get)
        assert sizes[first] < sizes[second]
        rows = {b: dict(stored.dfs.peek_block(b).columns) for b in (first, second)}
        monkeypatch.setattr(shared_memory, "_HEADROOM", 0.0)
        store, cache = SharedBlockStore(), SharedSegmentCache()
        try:
            before = store.pin_table(stored, block_ids, names)
            for view in cache.get_blocks(before, block_ids):
                for name in names:
                    assert np.array_equal(
                        view.columns[name], stored.dfs.peek_block(view.block_id).columns[name]
                    )
            with stored.mutation():  # the two blocks swap their rows
                stored._rewrite_block(first, rows[second])
                stored._rewrite_block(second, rows[first])
            after = store.pin_table(stored, block_ids, names)
            assert after.segment == before.segment
            moved = [
                b for b in block_ids
                if b not in (first, second) and after.slots[b] != before.slots[b]
            ]
            assert moved, "the slab was not compacted"
            for view in cache.get_blocks(after, block_ids):
                block = stored.dfs.peek_block(view.block_id)
                assert view.num_rows == block.num_rows
                for name in names:
                    assert view.columns[name].tobytes() == block.columns[name].tobytes()
            with pytest.raises(StorageError, match="not pinned"):
                cache.get_blocks(after, [first, -1])
        finally:
            cache.close()
            store.close()

    @pytest.mark.parametrize("fallback", ["replace-with-tree", "exhaustion"])
    def test_fallbacks_agree_with_tasks_and_keep_one_segment(
        self, tpch_tables, monkeypatch, fallback
    ):
        """Whenever every block changed (``replace_with_tree``) every slot is
        stale, and when no extent fits the segment is replaced: answers stay
        those of ``tasks`` and each table still owns exactly one segment."""
        session = full_session(tpch_tables)
        store = session.backends["parallel"].store
        seen: set[str] = set()
        try:
            if fallback == "exhaustion":
                small = born_small(store, session.table("lineitem"), monkeypatch)
            for index, query in enumerate(adaptive_stream(12)):
                if fallback == "replace-with-tree" and index % 4 == 3:
                    table = session.table("lineitem")
                    table.replace_with_tree(
                        UpfrontPartitioner(["l_orderkey"], table.rows_per_block).build(
                            table.sample, total_rows=table.total_rows
                        )
                    )
                assert_backends_agree(session, query)
                seen.update(pinned_segments(session.backends["parallel"]))
                assert sorted(filter(segment_exists, seen)) == sorted(
                    pinned_segments(session.backends["parallel"])
                )
            if fallback == "exhaustion":
                assert store.segment_of("lineitem") != small
                assert not segment_exists(small)
            else:
                assert len(seen) == len(store.pinned_tables)  # nothing was replaced
        finally:
            session.close()
        assert not any(segment_exists(segment) for segment in seen)

    def test_hand_off_does_not_grow_with_the_table(self, tpch_tables):
        """What a work item pickles to depends on the blocks it reads, not
        on how many blocks its table has."""
        sizes, blocks_in_table = [], []
        for rows_per_block in (512, 50):
            stored = lineitem_of(tpch_tables, rows_per_block)
            block_ids = tuple(stored.non_empty_block_ids()[:3])
            store = SharedBlockStore()
            try:
                blocks = BlockInput(
                    "lineitem", block_ids, (), "l_orderkey",
                    pin=store.pin_table(stored, block_ids, ["l_orderkey"]),
                )
                sizes.append(len(pickle.dumps(TaskWork(0, TaskKind.SHUFFLE_MAP, 0, (blocks,)))))
            finally:
                store.close()
            blocks_in_table.append(len(stored.block_ids()))
        assert blocks_in_table[1] >= 10 * blocks_in_table[0]
        assert sizes[1] <= sizes[0] + 16  # a few offsets need a wider integer

    def test_an_input_is_handed_its_own_blocks_and_columns(self, tpch_tables):
        """Two inputs of one stage read one table through different columns:
        each is handed the slots of its blocks and the offsets of its columns
        only, and reads the block's own bytes through them."""
        stored = lineitem_of(tpch_tables)
        block_ids = stored.non_empty_block_ids()[:4]
        store, cache = SharedBlockStore(), SharedSegmentCache()
        try:
            pin = store.pin_table(stored, block_ids, ["l_orderkey", "l_partkey", "l_quantity"])
            for names in (["l_partkey"], ["l_quantity", "l_orderkey"]):
                selected = pin.select(block_ids[1:3], names)
                assert [name for name, _ in selected.columns] == [
                    name for name, _ in pin.columns if name in names
                ]
                assert sorted(selected.slots) == sorted(block_ids[1:3])
                for view in cache.get_blocks(selected, block_ids[1:3]):
                    assert sorted(view.columns) == sorted(names)
                    block = stored.dfs.peek_block(view.block_id)
                    assert all(
                        view.columns[name].tobytes() == block.columns[name].tobytes()
                        for name in names
                    )
        finally:
            cache.close()
            store.close()

    def test_a_block_changed_but_never_read_is_not_copied(self, tpch_tables):
        stored = lineitem_of(tpch_tables)
        read, unread = stored.non_empty_block_ids()[:2]
        rows = dict(stored.dfs.peek_block(read).columns)
        names = ["l_orderkey", "l_quantity"]
        store = SharedBlockStore()
        try:
            store.pin_table(stored, [read, unread], names)
            copied = store.copied_bytes
            with stored.mutation():
                stored._rewrite_block(unread, rows)
            store.pin_table(stored, [read], names)
            assert store.copied_bytes == copied
            store.pin_table(stored, [read, unread], names)
            assert store.copied_bytes == copied + slot_bytes(stored.dfs.peek_block(unread), names)
        finally:
            store.close()

    def test_every_slot_read_equals_the_block_byte_for_byte(self, tpch_tables, monkeypatch):
        """Over an adaptive stream, after every query, every column of each
        slot a stage handed its helpers holds exactly the bytes of the block
        it stands for.  (The parent reads its own machine's blocks in place,
        so the stream is long enough for the helpers' share to exceed 500.)"""
        session = full_session(tpch_tables)
        pins, checked = recorded_pins(session.backends["parallel"].store, monkeypatch), 0
        cache = SharedSegmentCache()
        try:
            for query in adaptive_stream(96):
                pins.clear()
                session.run(query)
                for pin in pins:
                    for view in cache.get_blocks(pin, pin.slots):
                        block = session.dfs.peek_block(view.block_id)
                        assert view.num_rows == block.num_rows
                        assert list(view.columns) == [name for name, _ in pin.columns]
                        current = block.arrays(list(view.columns))
                        assert all(
                            view.columns[name].tobytes() == current[name].tobytes()
                            for name in view.columns
                        )
                        checked += 1
            assert checked > 500
            assert session.table("lineitem").epoch > 10  # the stream did repartition
        finally:
            cache.close()
            session.close()

    def test_a_query_copies_and_compacts_only_the_columns_it_reads(
        self, tpch_tables, monkeypatch
    ):
        """After an adaptive stream left blocks with pending pieces, one
        parallel query merges the columns it reads of the blocks it reads,
        copies those of the blocks its helpers read, and nothing else: every
        other column stays pending, as on the inline path (a pin that copied
        the whole block merged them all).  The join is forced to shuffle:
        its map stage spreads over the machines, so the helpers get work."""
        session = full_session(tpch_tables, execution_backend="tasks")
        store = session.backends["parallel"].store
        submitted = recorded_submits(monkeypatch)
        try:
            for query in adaptive_stream(12):
                session.run(query)
            tables = ("lineitem", "orders")
            pending = {
                block_id: set(session.dfs.peek_block(block_id).pending_columns)
                for table in tables
                for block_id in session.table(table).block_ids()
            }
            session.use_backend("parallel")
            monkeypatch.setattr(session.config, "force_join_method", "shuffle")
            # On the mmap tier a block evicted meanwhile was clean or was
            # written back first, which merges every column: none is pending.
            evicted = evicted_blocks(session, monkeypatch)
            query = join_query(
                "lineitem", "orders", "l_orderkey", "o_orderkey",
                {"lineitem": [between("l_quantity", 5, 25)]},
            )
            result = session.run(query, adapt=False)
            assert result.join_methods == ["shuffle"]
            reads = {"lineitem": {"l_orderkey", "l_quantity"}, "orders": {"o_orderkey"}}
            read = {b for _, task in result.schedule.placements() for b in task.read_block_ids}
            blocks = [session.dfs.peek_block(block_id) for block_id in sorted(read)]
            for block in blocks:
                if block.block_id in evicted:
                    assert block.pending_columns == {}
                else:
                    expected = pending[block.block_id] - reads[block.table]
                    assert set(block.pending_columns) == expected
            assert any(block.pending_columns for block in blocks)
            shipped = {b for work in submitted for blocks in work.inputs for b in blocks.block_ids}
            assert shipped and shipped < read  # the parent read the rest in place
            assert store.copied_bytes == sum(
                slot_bytes(block, reads[block.table])
                for block in blocks
                if block.block_id in shipped
            )
        finally:
            session.close()

    def test_a_slot_widens_by_the_columns_it_lacks(self, tpch_tables, monkeypatch):
        """Over a template-switching stream, each stage copies exactly the
        (block, column) pairs no earlier stage copied, and the columns a slot
        already holds keep their place as it widens (nothing adapts, so no
        slot goes stale)."""
        session = full_session(tpch_tables)
        store = session.backends["parallel"].store
        pins = recorded_pins(store, monkeypatch)
        held: dict[int, dict[str, int]] = {}
        widened = 0
        try:
            for query in adaptive_stream(24):
                copied, pins[:] = store.copied_bytes, []
                session.run(query, adapt=False)
                expected = 0
                for pin in pins:
                    for block_id, (num_rows, offsets) in pin.slots.items():
                        known = held.setdefault(block_id, {})
                        new = [name for name, _ in pin.columns if name not in known]
                        widened += bool(known and new)
                        for (name, dtype), offset in zip(pin.columns, offsets):
                            assert known.setdefault(name, offset) == offset
                            if name in new:
                                expected += _aligned(num_rows * np.dtype(dtype).itemsize)
                assert store.copied_bytes - copied == expected
            assert widened > 10
        finally:
            session.close()

    def test_a_pin_missing_a_column_fails_typed(self, tpch_tables):
        """A kernel handed a pin that lacks a column it reads raises a
        ``StorageError`` naming the column, never a bare ``KeyError``."""
        stored = lineitem_of(tpch_tables)
        block_ids = tuple(stored.non_empty_block_ids()[:3])
        store, cache = SharedBlockStore(), SharedSegmentCache()
        try:
            blocks = BlockInput(
                "lineitem", block_ids, (between("l_quantity", 5, 25),), "l_orderkey",
                pin=store.pin_table(stored, block_ids, ["l_orderkey"]),
            )
            for kind in (TaskKind.SCAN, TaskKind.SHUFFLE_MAP):
                work = TaskWork(0, kind, 0, (blocks,), num_partitions=4)
                with pytest.raises(StorageError, match="'l_quantity'"):
                    kernels_tasks.run_task(work, lambda b: cache.get_blocks(b.pin, b.block_ids))
        finally:
            cache.close()
            store.close()

    def test_a_stage_no_fresh_segment_holds_fails_typed(self, tpch_tables, monkeypatch):
        """Regression: ``pin_table`` called itself after replacing the slab,
        so a stage that not even a fresh segment holds recursed until
        ``RecursionError``.  It fails typed, its segment is gone, and the
        session runs on once segments are sized as usual."""
        before = set(glob.glob("/dev/shm/psm_*"))
        session = make_session(tpch_tables)
        store = session.backends["parallel"].store
        scan = scan_query("lineitem", [between("l_quantity", 1, 50)])
        try:
            monkeypatch.setattr(shared_memory, "_HEADROOM", -0.99)
            with pytest.raises(
                StorageError, match=r"reads \d+ bytes of table 'lineitem'; .* holds \d+"
            ):
                session.run(scan, adapt=False)
            assert store.segment_of("lineitem") is None
            monkeypatch.undo()
            assert_backends_agree(session, scan)
        finally:
            session.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before


# --------------------------------------------------------------------- #
# Shared-memory segment lifecycle
# --------------------------------------------------------------------- #
class TestSegmentLifecycle:
    def test_close_unlinks_every_segment(self, tpch_tables):
        # A shuffle join: its map stage has work for the helpers, and pins.
        session = make_session(tpch_tables, force_join_method="shuffle")
        session.run(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"))
        backend = session.backends["parallel"]
        segments = pinned_segments(backend)
        assert segments, "executing a join should have pinned tables"
        assert all(segment_exists(segment) for segment in segments)
        session.close()
        assert backend.store.pinned_tables == []
        assert not any(segment_exists(segment) for segment in segments)

    def test_close_leaves_no_segment_after_patches_and_rebuilds(self, tpch_tables, monkeypatch):
        session = full_session(tpch_tables)
        backend = session.backends["parallel"]
        seen: set[str] = set()
        born_small(backend.store, session.table("lineitem"), monkeypatch)
        for query in adaptive_stream(10):
            seen.update(pinned_segments(backend))
            session.run(query)
        seen.update(pinned_segments(backend))
        assert len(seen) > len(backend.store.pinned_tables)  # a segment was replaced
        # ...and stale slots were copied again: more was copied than is held.
        assert backend.store.copied_bytes > sum(s.tail for s in backend.store._slabs.values())
        session.close()
        assert backend.store.pinned_tables == []
        assert not any(segment_exists(segment) for segment in seen)

    def test_a_closed_sessions_store_is_collectable(self, tpch_tables):
        """Regression: every store registered ``atexit`` for good, so every
        session of a process (of any backend) lived until interpreter exit."""
        session = make_session(tpch_tables)
        session.run(scan_query("lineitem", [between("l_quantity", 1, 10)]))
        idle = Session(config=parallel_config(execution_backend="tasks"))
        stores = [weakref.ref(s.backends["parallel"].store) for s in (session, idle)]
        session.close()
        idle.close()
        del session, idle
        gc.collect()
        assert [store() for store in stores] == [None, None]

    def test_epoch_bump_invalidates_pin(self, par_session):
        """A bump that stamps every block makes every slot stale — the blocks
        read next are copied again — but the segment, and the workers'
        attachment to it, stay."""
        query = scan_query("lineitem", [between("l_quantity", 1, 20)])
        baseline = par_session.run(query, adapt=False).fingerprint()
        store = par_session.backends["parallel"].store
        table = par_session.table("lineitem")
        segment, copied = store.segment_of("lineitem"), store.copied_bytes
        assert segment is not None and copied > 0

        assert par_session.run(query, adapt=False).fingerprint() == baseline
        assert store.copied_bytes == copied  # a current slab costs nothing

        with table.mutation():
            for block_id in table.block_ids():
                table._open_block(block_id)
        assert par_session.run(query, adapt=False).fingerprint() == baseline
        assert store.copied_bytes == 2 * copied
        assert store.segment_of("lineitem") == segment
        assert segment_exists(segment)

    def test_worker_crash_recovers_and_leaks_nothing(self, tpch_tables):
        session = make_session(tpch_tables)
        query = scan_query("lineitem", [between("l_quantity", 5, 40)])
        baseline = session.run(query).fingerprint()
        backend = session.backends["parallel"]
        pool = backend.pool
        os.kill(pool._workers[0].pid, signal.SIGKILL)
        pool._workers[0].join(timeout=5.0)
        assert not pool.alive

        # The next execution transparently restarts the pool...
        assert session.run(query).fingerprint() == baseline
        assert backend.pool is not pool
        assert backend.pool.alive

        # ...and teardown still unlinks every segment.
        segments = pinned_segments(backend)
        session.close()
        assert not any(segment_exists(segment) for segment in segments)

    def test_abandoned_pool_does_not_hang_interpreter_exit(self):
        """A pool dropped without close() must not deadlock at shutdown.

        Regression test: ``__del__`` at interpreter finalization used to
        send queue sentinels, and a first ``put`` on an idle worker's
        queue starts the feeder thread — ``Thread.start()`` deadlocks
        once the interpreter stops admitting new threads.
        """
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import numpy as np\n"
            "from repro.exec import TaskKind\n"
            "from repro.exec.kernels_tasks import TaskWork\n"
            "from repro.parallel.pool import WorkerPool\n"
            "pool = WorkerPool(2)\n"
            "pool.submit(0, TaskWork(0, TaskKind.SHUFFLE_REDUCE, 0,\n"
            "    build_keys=np.array([1]), probe_keys=np.array([1])))\n"
            "assert pool.collect(1)[0].rows == 1\n"
            "# worker 1 never ran a task; no close() — just exit\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        completed = subprocess.run(
            [sys.executable, "-c", script, src], timeout=60, capture_output=True
        )
        assert completed.returncode == 0, completed.stderr.decode()

    def test_collect_detects_worker_death(self):
        pool = WorkerPool(1)
        try:
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            pool._workers[0].join(timeout=5.0)
            pool.submit(
                0,
                TaskWork(
                    task_id=0,
                    kind=TaskKind.SHUFFLE_REDUCE,
                    machine_id=0,
                    build_keys=np.array([1], dtype=np.int64),
                    probe_keys=np.array([1], dtype=np.int64),
                ),
            )
            started = time.monotonic()
            with pytest.raises(ExecutionError, match="died.*repro-parallel-0"):
                pool.collect(1, timeout=10.0)
            # Reported off the worker's sentinel, not at the next poll.
            assert time.monotonic() - started < 0.5
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Failed stages
# --------------------------------------------------------------------- #
class TestFailedStages:
    def test_failed_stage_does_not_poison_the_next_query(self, tpch_tables, monkeypatch):
        """Regression: a failed stage's other outcomes stayed in the result
        queue of a pool that was still alive, and the next query collected
        them as its own (a wrong answer, a stale error or a bare KeyError).
        """
        session = make_session(tpch_tables)
        backend = session.backends["parallel"]
        scan = scan_query("lineitem", [between("l_quantity", 5, 40)])
        session.run(scan_query("orders"), adapt=False)  # a live pool, lineitem unseen
        pool = backend.pool
        pin_table = backend.store.pin_table
        # Ship pins that name no segment: every task of the stage fails in
        # its worker, collect() raises on the first report and the others
        # are still on their way to the parent.
        monkeypatch.setattr(
            backend.store,
            "pin_table",
            lambda *args: replace(pin_table(*args), segment="psm_none"),
        )
        with pytest.raises(ExecutionError, match="FileNotFoundError"):
            session.run(scan, adapt=False)
        monkeypatch.undo()

        for query in (join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), scan):
            assert_backends_agree(session, query)
        assert backend.pool is not pool and backend.pool.alive
        segments = pinned_segments(backend)
        session.close()
        assert segments and not any(segment_exists(segment) for segment in segments)

    @needs_fork
    def test_worker_write_to_a_pinned_block_fails_the_query(self, tpch_tables, monkeypatch):
        """A kernel that writes to a block it reads fails the query with
        ``ExecutionError`` whether a helper runs it (the pinned view is
        read-only), the parent does, or the ``tasks`` backend does (the
        block's own arrays are read-only), and no block changes."""
        session = make_session(tpch_tables)  # WorkerPool forks where it can
        try:
            scan = scan_query("lineitem", [between("l_quantity", 5, 25)])
            table = session.table("lineitem")
            first_column = "l_quantity"  # the one column the scan reads
            before = {
                block_id: session.dfs.peek_block(block_id).columns[first_column].copy()
                for block_id in table.non_empty_block_ids()
            }
            run_scan_task = kernels_tasks.run_scan_task
            parent, writer = os.getpid(), {}

            def writing_scan(blocks, predicates):
                if (os.getpid() == parent) == (writer["where"] != "helper"):
                    column = blocks[0].columns[first_column]
                    column[0] = column[0] + 1
                return run_scan_task(blocks, predicates)

            # Patched before a pool starts, so the forked workers run it; a
            # failed query drops its pool, and the next one forks anew.
            monkeypatch.setattr(kernels_tasks, "run_scan_task", writing_scan)
            for where, reported in (
                ("helper", "on worker"), ("parent", "on machine"), ("tasks", "on machine")
            ):
                writer["where"] = where
                session.use_backend("tasks" if where == "tasks" else "parallel")
                with pytest.raises(
                    ExecutionError, match=f"{reported}.*destination is read-only"
                ):
                    session.run(scan, adapt=False)
                for block_id, column in before.items():
                    assert np.array_equal(
                        session.dfs.peek_block(block_id).columns[first_column], column
                    )
            monkeypatch.undo()
            # The workers that inherited the patch went with the failed pool.
            assert_backends_agree(session, scan)
        finally:
            session.close()

    @needs_fork
    def test_a_helper_that_dies_mid_stage_costs_one_restart(
        self, tpch_tables, monkeypatch, tmp_path
    ):
        """A helper that exits on one task of a shuffle join's map stage:
        the backend restarts the pool once and runs the stage's uncollected
        works on the fresh workers.  The answer is that of ``tasks``, the
        next query runs on the restarted pool, and nothing leaks."""
        before = set(glob.glob("/dev/shm/psm_*"))
        session = make_session(tpch_tables, force_join_method="shuffle")
        backend = session.backends["parallel"]
        parent, died = os.getpid(), str(tmp_path / "died")
        run_shuffle_map_task = kernels_tasks.run_shuffle_map_task

        def dying_map(*args):
            if os.getpid() != parent:
                try:  # the first helper to get here dies, and only it
                    os.close(os.open(died, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(3)
            return run_shuffle_map_task(*args)

        join = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        try:
            # Patched before the pool starts, so the forked workers run it.
            monkeypatch.setattr(kernels_tasks, "run_shuffle_map_task", dying_map)
            first = backend.ensure_pool()
            assert_backends_agree(session, join, adapt=False)
            assert os.path.exists(died)
            restarted = backend.pool
            assert restarted is not first and not first.alive
            monkeypatch.undo()
            assert_backends_agree(session, join, adapt=False)
            assert backend.pool is restarted and restarted.alive
        finally:
            session.close()
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    @needs_fork
    def test_a_second_death_fails_the_query(self, tpch_tables, monkeypatch):
        """Helpers that die on every map: the restarted pool's die too, and
        the query fails loudly instead of restarting for good."""
        session = make_session(tpch_tables, force_join_method="shuffle")
        parent = os.getpid()
        run_shuffle_map_task = kernels_tasks.run_shuffle_map_task

        def dying_map(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_shuffle_map_task(*args)

        join = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        try:
            monkeypatch.setattr(kernels_tasks, "run_shuffle_map_task", dying_map)
            with pytest.raises(WorkerDied, match="died during execution"):
                session.run(join, adapt=False)
            monkeypatch.undo()
            assert_backends_agree(session, join, adapt=False)
        finally:
            session.close()

    def test_collect_timeout_is_per_outcome(self, monkeypatch):
        """Regression: the deadline was set once per stage, so a stage making
        steady progress for longer than ``timeout`` in total was killed at
        the first quiet second after it.  Every wait for an outcome gets the
        whole timeout, and only a wait that ends with nothing ready fails.
        """

        class ScriptedReader:
            def __init__(self, *outcomes):
                self.outcomes = list(outcomes)

            def recv(self):
                return ("ok", 0, self.outcomes.pop(0))

            def close(self):
                pass

        pool = WorkerPool(1)
        reader, results = ScriptedReader(TaskOutcome(0, 1), TaskOutcome(1, 1)), pool._results
        waited = []

        def scripted_wait(handles, timeout):
            # Each outcome arrives "after 40 s": 80 s in total, above the limit.
            waited.append(timeout)
            return [reader] if reader.outcomes else []

        try:
            pool._results = [reader]
            monkeypatch.setattr(pool_module, "wait", scripted_wait)
            outcomes = pool.collect(2, timeout=60.0)
            assert [outcome.task_id for outcome in outcomes] == [0, 1]
            assert waited == [60.0, 60.0]
            with pytest.raises(ExecutionError, match=r"timed out .*\(0/1\)"):
                pool.collect(1, timeout=60.0)
        finally:
            monkeypatch.undo()
            pool._results = results
            pool.close()


# --------------------------------------------------------------------- #
# Backend protocol details
# --------------------------------------------------------------------- #
class TestBackendProtocol:
    def test_registered_and_selected_via_config(self, par_session):
        backend = par_session.backends["parallel"]
        assert isinstance(backend, ParallelBackend)
        assert backend.executor is par_session.executor
        assert par_session.backend is backend

    def test_pool_starts_lazily(self, tpch_tables):
        session = make_session(tpch_tables)
        try:
            backend = session.backends["parallel"]
            assert backend.pool is None
            session.run(scan_query("lineitem", [between("l_quantity", 1, 10)]))
            assert backend.pool is not None and backend.pool.alive
        finally:
            session.close()


# --------------------------------------------------------------------- #
# Attached views are read-only
# --------------------------------------------------------------------- #
def make_stored(rows: int = 400, rows_per_block: int = 64) -> StoredTable:
    rng = np.random.default_rng(3)
    schema = Schema.of(("key", DataType.INT), ("value", DataType.FLOAT))
    table = ColumnTable(
        "t",
        schema,
        {
            "key": rng.integers(0, 1_000, size=rows),
            "value": rng.uniform(0, 1, size=rows),
        },
    )
    tree = UpfrontPartitioner(["key"], rows_per_block).build(
        table.sample(rng=np.random.default_rng(4)), total_rows=rows
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), rng=make_rng(5))
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


class TestFrozenViews:
    def test_attached_views_are_readonly(self):
        array = np.arange(8, dtype=np.int64)
        buffer = memoryview(bytearray(array.tobytes())).toreadonly()
        view = SharedBlockView(0, (8, (0,)), (("key", array.dtype.str),), buffer)
        assert np.array_equal(view.columns["key"], array)
        with pytest.raises(ValueError):
            view.columns["key"][0] = 99

    def test_a_worker_cannot_write_a_pinned_block(self):
        """A worker cannot write a pinned block, nor make its view writable."""
        stored = make_stored()
        block_id = stored.non_empty_block_ids()[0]
        before = stored.dfs.peek_block(block_id).columns["key"].copy()
        store, cache, witness = SharedBlockStore(), SharedSegmentCache(), SharedSegmentCache()
        try:
            pin = store.pin_table(stored, [block_id], ["key"])
            view = cache.get_blocks(pin, [block_id])[0].columns["key"]
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = view[0] + 1
            with pytest.raises(ValueError):
                view.setflags(write=True)
            del view
            # Neither the parent's block nor the segment every other worker
            # reads has changed.
            seen = witness.get_blocks(pin, [block_id])[0].columns["key"]
            assert np.array_equal(seen, before)
            del seen
            assert np.array_equal(stored.dfs.peek_block(block_id).columns["key"], before)
        finally:
            witness.close()
            cache.close()
            store.close()
