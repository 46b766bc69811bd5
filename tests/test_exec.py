"""Tests for the task-based parallel execution engine (repro.exec).

Covers the scheduler (locality-aware placement, makespan accounting,
determinism), plan compilation, batched DFS reads, the two executor
accounting regressions — multi-join queries must report the *final* join's
cardinality, and pure-scan matches must be accounted separately from join
output in mixed scan+join queries — and the worker boundary: what a task
hands to another process is what pickles, so the "ids, pins and flat arrays
only" contract is checked on the pickle stream of real workloads.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import pytest

from repro.api import Session
from repro.cluster import Cluster
from repro.common.predicates import ge, rows_matching
from repro.common.query import Query, JoinClause, join_query, scan_query
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.exec import Scheduler, Task, TaskKind, compile_plan
from repro.exec.tasks import straggler_factor
from repro.exec.engine import Executor
from repro.exec.kernels_tasks import BlockInput, TaskOutcome, TaskWork, run_task
from repro.exec.scheduler import bucket_blocks_by_replica, replica_hints
from repro.join.kernels import batch_matching_count, gather_filtered_keys
from repro.parallel import WorkerPool
from repro.partitioning.tree import PartitioningTree, TreeNode
from repro.storage.block import Block
from repro.storage.catalog import Catalog
from repro.storage.dfs import DistributedFileSystem
from repro.storage.shared_memory import SharedBlockStore, TablePin
from repro.storage.table import StoredTable
from repro.testing import reference_join_count
from repro.workloads.generators import switching_workload
from repro.workloads.tpch_queries import EVALUATED_TEMPLATES, tpch_query


def make_task(task_id, cost, hints=None, stage=0, kind=TaskKind.SCAN, blocks=()):
    return Task(
        task_id=task_id,
        kind=kind,
        cost_units=cost,
        block_ids=tuple(blocks),
        stage=stage,
        replica_hints=hints or {},
    )


class TestScheduler:
    def test_placement_prefers_replica_holders(self):
        scheduler = Scheduler(num_machines=4)
        task = make_task(0, 5.0, hints={2: 3}, blocks=(1, 2, 3))
        schedule = scheduler.schedule([task])
        assert schedule.assignments[2] == [task]

    def test_placement_falls_back_to_least_loaded_when_locality_too_costly(self):
        scheduler = Scheduler(num_machines=2)
        heavy = make_task(0, 10.0, hints={0: 1})
        light = make_task(1, 1.0, hints={0: 1})
        schedule = scheduler.schedule([heavy, light])
        # Machine 0 already carries the 10-unit task; queueing the 1-unit
        # task behind it costs more than a remote read on idle machine 1.
        assert schedule.assignments[0] == [heavy]
        assert schedule.assignments[1] == [light]

    def test_makespan_is_max_machine_load(self):
        scheduler = Scheduler(num_machines=3)
        tasks = [make_task(i, cost) for i, cost in enumerate([5.0, 3.0, 2.0, 2.0])]
        schedule = scheduler.schedule(tasks)
        loads = schedule.machine_loads
        assert schedule.makespan == max(loads)
        assert schedule.total_cost == pytest.approx(12.0)
        # LPT over 3 machines balances 5/3/2+2 into loads {5, 3, 4}.
        assert sorted(loads) == pytest.approx([3.0, 4.0, 5.0])

    def test_schedule_is_deterministic(self):
        tasks = [
            make_task(i, cost, hints={i % 5: 1})
            for i, cost in enumerate([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        ]
        first = Scheduler(num_machines=5).schedule(tasks)
        second = Scheduler(num_machines=5).schedule(tasks)
        assert [
            [t.task_id for t in first.assignments[m]] for m in range(5)
        ] == [[t.task_id for t in second.assignments[m]] for m in range(5)]

    def test_stage_ordering_in_placements(self):
        reduce_task = make_task(0, 1.0, stage=1, kind=TaskKind.SHUFFLE_REDUCE)
        map_task = make_task(1, 1.0, stage=0, kind=TaskKind.SHUFFLE_MAP)
        schedule = Scheduler(num_machines=2).schedule([reduce_task, map_task])
        ordered = [task.task_id for _, task in schedule.placements()]
        assert ordered == [1, 0]

    def test_empty_schedule(self):
        """A query with an empty relevant-block set compiles to no tasks.

        The edge-case contract: nobody straggled (factor 1.0) and no read
        was local (fraction 0.0) — neither property may divide by zero.
        """
        schedule = Scheduler(num_machines=3).schedule([])
        assert schedule.makespan == 0.0
        assert schedule.total_cost == 0.0
        assert straggler_factor(schedule.machine_loads) == 1.0
        assert schedule.locality_fraction == 0.0

    def test_zero_cost_schedule_edge_cases(self):
        """Tasks may carry zero cost (empty shuffle partitions): no division."""
        schedule = Scheduler(num_machines=2).schedule(
            [make_task(0, 0.0), make_task(1, 0.0, kind=TaskKind.SHUFFLE_REDUCE, stage=1)]
        )
        assert schedule.makespan == 0.0
        assert straggler_factor(schedule.machine_loads) == 1.0
        assert schedule.locality_fraction == 0.0


class TestBucketing:
    def test_buckets_only_contain_replica_holders(self, small_db):
        dfs = small_db.dfs
        block_ids = small_db.table("lineitem").non_empty_block_ids()
        buckets = bucket_blocks_by_replica(dfs, block_ids, small_db.cluster.num_machines)
        for machine, bucket in buckets.items():
            for block_id in bucket:
                assert machine in dfs.replicas_of(block_id)

    def test_buckets_partition_the_block_list(self, small_db):
        dfs = small_db.dfs
        block_ids = small_db.table("lineitem").non_empty_block_ids()
        buckets = bucket_blocks_by_replica(dfs, block_ids, small_db.cluster.num_machines)
        flattened = sorted(b for bucket in buckets.values() for b in bucket)
        assert flattened == sorted(block_ids)

    def test_replica_hints_count_blocks_per_machine(self, small_db):
        dfs = small_db.dfs
        block_ids = small_db.table("lineitem").non_empty_block_ids()[:4]
        hints = replica_hints(dfs, block_ids)
        assert sum(hints.values()) == sum(len(dfs.replicas_of(b)) for b in block_ids)


class TestCompilation:
    def test_join_plan_compiles_to_tasks_with_matching_cost(self, small_db):
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        plan = small_db.plan(query, adapt=False)
        compiled = compile_plan(plan, small_db.catalog, small_db.cluster)
        assert compiled.tasks, "a join plan must compile to at least one task"
        result = small_db.execute(small_db.lower(plan))
        assert sum(t.cost_units for t in compiled.tasks) == pytest.approx(result.cost_units)

    def test_shuffle_join_compiles_map_and_reduce_stages(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, force_join_method="shuffle", seed=1)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        plan = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
        compiled = compile_plan(plan, db.catalog, db.cluster)
        kinds = {task.kind for task in compiled.tasks}
        assert TaskKind.SHUFFLE_MAP in kinds
        assert TaskKind.SHUFFLE_REDUCE in kinds
        assert all(
            task.stage == 1 for task in compiled.tasks if task.kind is TaskKind.SHUFFLE_REDUCE
        )

    def test_shuffle_reduce_tasks_sized_from_partition_rows(self, tpch_tables):
        """Reduce tasks carry the run cost in proportion to actual rows.

        The per-partition row counts are gathered at compile time by
        hash-partitioning the filtered join keys; the per-join total stays
        equation (1)'s ``(CSJ - 1) * blocks`` share, only its split moves.
        """
        config = AdaptDBConfig(rows_per_block=512, force_join_method="shuffle", seed=1)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        plan = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
        compiled = compile_plan(plan, db.catalog, db.cluster)
        reduces = [t for t in compiled.tasks if t.kind is TaskKind.SHUFFLE_REDUCE]
        maps = [t for t in compiled.tasks if t.kind is TaskKind.SHUFFLE_MAP]
        assert len(reduces) == db.cluster.num_machines
        map_blocks = sum(len(t.block_ids) for t in maps)
        run_total = (db.cluster.cost_model.shuffle_factor - 1.0) * map_blocks
        assert sum(t.cost_units for t in reduces) == pytest.approx(run_total)
        total_rows = sum(t.input_rows for t in reduces)
        assert total_rows > 0
        for task in reduces:
            assert task.cost_units == pytest.approx(
                run_total * task.input_rows / total_rows
            )
        # TPC-H keys are not perfectly uniform mod num_machines: the sizing
        # must actually produce a skewed split, not rediscover the even one.
        costs = [t.cost_units for t in reduces]
        assert max(costs) > min(costs)

    def test_hyper_join_compiles_one_task_per_group(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, force_join_method="hyper", seed=1)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        plan = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
        compiled = compile_plan(plan, db.catalog, db.cluster)
        group_tasks = [t for t in compiled.tasks if t.kind is TaskKind.HYPER_GROUP]
        assert len(group_tasks) == plan.join_decisions[0].hyper_plan.grouping.num_groups


class TestExecutorAccounting:
    def test_multi_join_reports_final_join_cardinality(self, small_config, tpch_tables):
        """Regression: output_rows used to be the *first* join's cardinality."""
        db = Session(small_config)
        for name in ("lineitem", "orders", "customer"):
            db.load_table(tpch_tables[name])
        query = tpch_query("q3", db.rng)
        result = db.run(query, adapt=False)
        final = query.joins[-1]
        expected = reference_join_count(
            tpch_tables[final.left_table],
            tpch_tables[final.right_table],
            final.left_column,
            final.right_column,
            query.predicates_on(final.left_table),
            query.predicates_on(final.right_table),
        )
        assert result.output_rows == expected
        assert result.join_stats[-1].output_rows == expected
        # Per-join stats keep every clause's cardinality.
        assert len(result.join_stats) == len(query.joins)

    def test_mixed_scan_and_join_accounts_scan_rows(self, small_config, tpch_tables):
        """Regression: scan matches were dropped whenever a join existed."""
        db = Session(small_config)
        for name in ("lineitem", "orders", "part"):
            db.load_table(tpch_tables[name])
        predicate = ge("p_size", 0)  # matches every part row
        query = Query(
            tables=["lineitem", "orders", "part"],
            predicates={"part": [predicate]},
            joins=[JoinClause("lineitem", "orders", "l_orderkey", "o_orderkey")],
        )
        result = db.run(query, adapt=False)
        assert result.scan_output_rows == tpch_tables["part"].num_rows
        expected_join = reference_join_count(
            tpch_tables["lineitem"], tpch_tables["orders"], "l_orderkey", "o_orderkey"
        )
        assert result.output_rows == expected_join

    def test_pure_scan_output_rows_unchanged(self, small_db, tpch_tables):
        predicate = ge("l_shipdate", 0)
        result = small_db.run(scan_query("lineitem", [predicate]), adapt=False)
        assert result.output_rows == result.scan_output_rows
        assert result.output_rows == tpch_tables["lineitem"].num_rows

    def test_makespan_below_serial_sum_on_multi_machine_cluster(
        self, small_config, tpch_tables
    ):
        db = Session(small_config)
        for name in ("lineitem", "orders", "customer"):
            db.load_table(tpch_tables[name])
        result = db.run(tpch_query("q3", db.rng), adapt=False)
        assert db.cluster.num_machines > 1
        assert 0.0 < result.makespan_cost_units < result.cost_units
        assert result.makespan_cost_units == max(result.machine_cost_units)
        assert sum(result.machine_cost_units) == pytest.approx(result.cost_units)
        assert result.straggler_factor >= 1.0
        assert result.parallel_speedup > 1.0

    def test_empty_relevant_block_set_defines_edge_statistics(self, small_db):
        """A query whose relevant-block set is empty must not divide by zero."""
        plan = small_db.plan(scan_query("lineitem"), adapt=False)
        plan.scan_blocks["lineitem"] = []
        compiled = compile_plan(plan, small_db.catalog, small_db.cluster)
        assert compiled.tasks == []
        schedule = Scheduler(small_db.cluster.num_machines).schedule(compiled.tasks)
        assert straggler_factor(schedule.machine_loads) == 1.0
        assert schedule.locality_fraction == 0.0
        result = small_db.executor.execute_schedule(plan, compiled, schedule)
        assert result.output_rows == 0
        assert result.blocks_read == 0
        assert result.makespan_cost_units == 0.0
        assert result.straggler_factor == 1.0

    def test_results_identical_across_runs(self, tpch_tables):
        def run_once():
            db = Session(AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=42))
            for name in ("lineitem", "orders"):
                db.load_table(tpch_tables[name])
            result = db.run(
                join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False
            )
            return (
                result.output_rows,
                result.cost_units,
                result.makespan_cost_units,
                tuple(result.machine_cost_units),
            )

        assert run_once() == run_once()


class TestBatchedReads:
    def test_get_blocks_preserves_order_and_counts_reads(self, small_db):
        dfs = small_db.dfs
        block_ids = small_db.table("orders").non_empty_block_ids()[:3]
        dfs.reset_read_stats()
        blocks = dfs.get_blocks(block_ids, reader_machine=0)
        assert [b.block_id for b in blocks] == block_ids
        assert dfs.read_stats.total_reads == len(block_ids)

    def test_get_blocks_accounts_locality_against_reader(self, small_db):
        dfs = small_db.dfs
        block_ids = small_db.table("orders").non_empty_block_ids()[:4]
        dfs.reset_read_stats()
        reader = 1
        dfs.get_blocks(block_ids, reader_machine=reader)
        expected_local = sum(1 for b in block_ids if reader in dfs.replicas_of(b))
        assert dfs.read_stats.local_reads == expected_local
        assert dfs.read_stats.remote_reads == len(block_ids) - expected_local

    def test_batch_kernels_match_per_block_results(self, small_db):
        table = small_db.table("lineitem")
        dfs = small_db.dfs
        blocks = [dfs.peek_block(b) for b in table.non_empty_block_ids()]
        predicates = [ge("l_shipdate", 100)]
        masks = [rows_matching(b.columns, predicates) for b in blocks]
        assert batch_matching_count(blocks, predicates) == sum(int(m.sum()) for m in masks)
        keys = gather_filtered_keys(blocks, "l_orderkey", predicates)
        per_block_keys = np.concatenate(
            [b.columns["l_orderkey"][mask] for b, mask in zip(blocks, masks)]
        )
        assert np.array_equal(np.sort(keys), np.sort(per_block_keys))

    def test_engine_reads_locally_where_scheduled(self, small_db):
        """The scheduler's placement should beat round-robin locality."""
        result = small_db.run(scan_query("lineitem"), adapt=False)
        assert result.blocks_read > 0
        # Replica-bucketed scan tasks read every block from a local replica.
        assert small_db.dfs.read_stats.locality_fraction == 1.0


# --------------------------------------------------------------------- #
# The worker boundary: the hand-off is what pickles
# --------------------------------------------------------------------- #
#: Parent-only state.  None of it may be reachable from anything that
#: crosses a worker queue.
PARENT_STATE = (
    Block, StoredTable, Catalog, DistributedFileSystem, Cluster, PartitioningTree,
    TreeNode, Session, Executor, SharedBlockStore, WorkerPool,
)


class BoundaryPickler(pickle.Pickler):
    """A pickler that refuses parent-only state anywhere in the object graph."""

    def reducer_override(self, obj):
        if isinstance(obj, PARENT_STATE):
            raise pickle.PicklingError(
                f"{type(obj).__name__} reached a cross-process payload"
            )
        return NotImplemented


def ship(payload):
    """Send ``payload`` through the boundary and return what arrives."""
    stream = io.BytesIO()
    BoundaryPickler(stream, pickle.HIGHEST_PROTOCOL).dump(payload)
    return pickle.loads(stream.getvalue())


@dataclass
class BoundaryBackend:
    """The inline runner with a process boundary's pickling in the middle:
    every work item and every outcome is shipped, and the *shipped* work runs.
    """

    executor: Executor
    shipped: list[TaskWork] = field(default_factory=list)

    def execute(self, physical):
        ship(physical.compiled.tasks)
        ship(physical.schedule)
        return self.executor.execute_schedule(
            physical.logical, physical.compiled, physical.schedule, runner=self.run_stage
        )

    def run_stage(self, works):
        outcomes = []
        for work in works:
            arrived = ship(work)
            self.shipped.append(arrived)
            outcomes.append(ship(run_task(arrived, partial(self.executor.fetch, arrived))))
        return outcomes


class TestWorkerBoundary:
    def run_stream(self, tpch_tables, queries, config, boundary):
        session = Session(AdaptDBConfig(rows_per_block=512, buffer_blocks=8, seed=1, **config))
        for table in tpch_tables.values():
            session.load_table(table)
        backend = BoundaryBackend(session.executor)
        if boundary:
            session.backends["boundary"] = backend
            session.use_backend("boundary")
        results = session.run_workload(queries)
        return [result.fingerprint() for result in results], backend.shipped, session

    @pytest.mark.parametrize(
        "config",
        [{}, {"force_join_method": "shuffle"}, {"force_join_method": "hyper"}],
        ids=["fig13a", "forced-shuffle", "forced-hyper"],
    )
    def test_real_streams_cross_the_boundary_bit_identically(self, tpch_tables, config):
        """Every work item and outcome of fig13a's adaptive switching stream
        (which opens with the multi-join q3) and of the two forced join
        methods pickles without parent state, and running what arrived gives
        the results the plain ``tasks`` run gives.
        """
        if config:
            queries = [join_query("lineitem", "orders", "l_orderkey", "o_orderkey")]
        else:
            queries = switching_workload(list(EVALUATED_TEMPLATES), 2, make_rng(1))
            assert len(queries[0].joins) > 1
        plain, _, _ = self.run_stream(tpch_tables, queries, config, boundary=False)
        arrived, shipped, session = self.run_stream(tpch_tables, queries, config, boundary=True)
        assert arrived == plain
        kinds = {work.kind for work in shipped}
        if config.get("force_join_method") == "shuffle":
            assert {TaskKind.SHUFFLE_MAP, TaskKind.SHUFFLE_REDUCE} <= kinds
        else:
            assert TaskKind.HYPER_GROUP in kinds

        # What the pool runner adds, the slots of the blocks read, crosses as
        # well (the last query's blocks: nothing repartitioned them since).
        work = next(work for work in reversed(shipped) if work.inputs)
        store = SharedBlockStore()
        try:
            pins = []
            for blocks in work.inputs:
                table = session.table(blocks.table)
                pins.append(
                    store.pin_table(table, blocks.block_ids, table.schema.column_names)
                )
            pinned = replace(
                work,
                inputs=tuple(
                    replace(blocks, pin=pin) for blocks, pin in zip(work.inputs, pins)
                ),
            )
            assert [blocks.pin for blocks in ship(pinned).inputs] == pins
            assert all(
                set(pin.slots) == set(blocks.block_ids)
                for blocks, pin in zip(work.inputs, pins)
            )
        finally:
            store.close()

    def test_boundary_pickler_rejects_parent_state(self, small_db):
        """The oracle bites: a live block one level inside a work item is refused."""
        block = small_db.dfs.peek_block(small_db.table("orders").block_ids()[0])
        with pytest.raises(pickle.PicklingError, match="Block"):
            ship(TaskWork(0, TaskKind.SHUFFLE_REDUCE, 0, build_keys=[block]))

    def test_payload_classes_are_frozen(self):
        payloads = (BlockInput, TaskWork, TaskOutcome, TablePin)
        assert all(cls.__dataclass_params__.frozen for cls in payloads)
