"""Tests for the multi-core execution backend (repro.parallel).

The contract under test: the parallel backend executes compiled task
schedules on real worker processes, with block columns shipped through
shared-memory segments, and produces results **bit-identical** to the
in-process task backend — same ``output_rows``, same ``fingerprint()`` —
on scan, shuffle-join and hyper-join workloads, including adaptive
workloads that repartition tables (epoch bumps) mid-stream.  Around that
core: segment lifecycle (no leaks after close, epoch-bumped pins rebuilt,
crashed workers recovered), failed stages (a worker-side error — including
a write to a pinned block, which is read-only — fails the query loudly and
leaves the session correct) and the wall-clock reporting fields that
fingerprints must ignore.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.common.predicates import between
from repro.common.query import join_query, scan_query
from repro.core import AdaptDBConfig
from repro.exec import TaskKind, kernels_tasks
from repro.exec.kernels_tasks import TaskOutcome, TaskWork
from repro.parallel import ParallelBackend, WorkerPool, pool as pool_module
from repro.common.errors import ExecutionError
from repro.storage.shared_memory import _attach_untracked
from repro.testing import fig08_scan_queries, fig13_join_queries
from repro.workloads.tpch_queries import tpch_query


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


def assert_backends_agree(session: Session, query) -> tuple:
    """Plan once, execute on both backends, demand bit-identical results.

    Returns ``(tasks_result, parallel_result)`` for extra assertions.
    """
    physical = session.lower(session.plan(query, adapt=True))
    session.use_backend("tasks")
    tasks_result = session.execute(physical)
    session.use_backend("parallel")
    parallel_result = session.execute(physical)
    assert parallel_result.output_rows == tasks_result.output_rows
    assert parallel_result.fingerprint() == tasks_result.fingerprint()
    return tasks_result, parallel_result


def pinned_segments(backend: ParallelBackend) -> list[str]:
    store = backend.store
    return [store.current_pin(name).segment for name in store.pinned_tables]


def segment_exists(name: str) -> bool:
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


# --------------------------------------------------------------------- #
# Bit-identical agreement with the in-process task backend
# --------------------------------------------------------------------- #
class TestAgreement:
    def test_fig12_mini_workload_bit_identical(self, par_session):
        """TPC-H template mix (fig12-style), adapting as it runs."""
        rng = np.random.default_rng(42)
        templates = ["q6", "q12", "q14", "q12", "q6"]
        for template in templates:
            assert_backends_agree(par_session, tpch_query(template, rng))

    def test_fig13_switching_workload_bit_identical(self, par_session):
        """Join workload with shifting predicates (fig13-style).

        Runs with adaptation on, so partition trees are rewritten and
        table epochs bump mid-workload; every post-repartition query must
        still match the task backend bit for bit (stale shared-memory
        pins would break this).
        """
        epoch_before = par_session.table("lineitem").epoch
        for query in fig13_join_queries(4) + fig08_scan_queries(2):
            assert_backends_agree(par_session, query)
        # Adaptation must actually have happened for this test to bite.
        assert par_session.table("lineitem").epoch > epoch_before

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
        session = make_session(tpch_tables, worker_start_method="spawn")
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


# --------------------------------------------------------------------- #
# Shared-memory segment lifecycle
# --------------------------------------------------------------------- #
class TestSegmentLifecycle:
    def test_close_unlinks_every_segment(self, tpch_tables):
        session = make_session(tpch_tables)
        session.run(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"))
        backend = session.backends["parallel"]
        segments = pinned_segments(backend)
        assert segments, "executing a join should have pinned tables"
        assert all(segment_exists(segment) for segment in segments)
        session.close()
        assert backend.store.pinned_tables == []
        assert not any(segment_exists(segment) for segment in segments)

    def test_epoch_bump_invalidates_pin(self, par_session):
        query = scan_query("lineitem", [between("l_quantity", 1, 20)])
        par_session.run(query)
        backend = par_session.backends["parallel"]
        table = par_session.table("lineitem")
        stale = backend.store.current_pin("lineitem")
        assert stale is not None and stale.epoch == table.epoch

        with table.mutation(full=True):
            pass
        par_session.run(query)
        fresh = backend.store.current_pin("lineitem")
        assert fresh.epoch == table.epoch
        assert fresh.segment != stale.segment
        assert not segment_exists(stale.segment)
        assert segment_exists(fresh.segment)

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
            with pytest.raises(ExecutionError, match="died"):
                pool.collect(1, timeout=10.0)
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
        # Ship a pin that lists no blocks: every task of the stage fails in
        # its worker, collect() raises on the first report and the others
        # are still on their way to the queue.
        monkeypatch.setattr(
            backend.store, "pin_table", lambda table: replace(pin_table(table), blocks={})
        )
        with pytest.raises(ExecutionError, match="not pinned"):
            session.run(scan, adapt=False)
        monkeypatch.undo()

        for query in (join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), scan):
            assert_backends_agree(session, query)
        assert backend.pool is not pool and backend.pool.alive
        segments = pinned_segments(backend)
        session.close()
        assert segments and not any(segment_exists(segment) for segment in segments)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched kernel reaches the workers by fork inheritance",
    )
    def test_worker_write_to_a_pinned_block_fails_the_query(self, tpch_tables, monkeypatch):
        session = make_session(tpch_tables, worker_start_method="fork")
        try:
            scan = scan_query("lineitem", [between("l_quantity", 5, 25)])
            table = session.table("lineitem")
            first_column = table.schema.column_names[0]
            before = {
                block_id: session.dfs.peek_block(block_id).columns[first_column].copy()
                for block_id in table.non_empty_block_ids()
            }
            run_scan_task = kernels_tasks.run_scan_task

            def writing_scan(blocks, predicates):
                column = blocks[0].columns[first_column]
                column[0] = column[0] + 1
                return run_scan_task(blocks, predicates)

            # Patched before the pool starts, so the forked workers run it.
            monkeypatch.setattr(kernels_tasks, "run_scan_task", writing_scan)
            with pytest.raises(ExecutionError, match="destination is read-only"):
                session.run(scan, adapt=False)
            monkeypatch.undo()

            for block_id, column in before.items():
                assert np.array_equal(
                    session.dfs.peek_block(block_id).columns[first_column], column
                )
            # The workers that inherited the patch went with the failed pool.
            assert_backends_agree(session, scan)
        finally:
            session.close()

    def test_collect_timeout_is_per_outcome(self, monkeypatch):
        """Regression: the deadline was set once per stage, so a stage making
        steady progress for longer than ``timeout`` in total was killed at
        the first quiet second after it.
        """

        class ScriptedQueue:
            def __init__(self, *script):
                self.script = list(script)

            def get(self, timeout):
                item = self.script.pop(0)
                if item is queue.Empty:
                    raise queue.Empty
                return item

        pool = WorkerPool(1)
        results = pool._results
        try:
            pool._results = ScriptedQueue(
                queue.Empty,
                ("ok", 0, TaskOutcome(task_id=0, rows=1)),
                queue.Empty,
                ("ok", 0, TaskOutcome(task_id=1, rows=1)),
            )
            clock = itertools.count(step=40)
            monkeypatch.setattr(pool_module, "_wall", lambda: float(next(clock)))
            outcomes = pool.collect(2, timeout=60.0)
            assert [outcome.task_id for outcome in outcomes] == [0, 1]
        finally:
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
        assert par_session.backend.name == "parallel"

    def test_pool_starts_lazily(self, tpch_tables):
        session = make_session(tpch_tables)
        try:
            backend = session.backends["parallel"]
            assert backend.pool is None
            session.run(scan_query("lineitem", [between("l_quantity", 1, 10)]))
            assert backend.pool is not None and backend.pool.alive
        finally:
            session.close()
