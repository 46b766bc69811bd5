"""Tests for the discrete-event cluster simulator (repro.sim).

Covers the simulator core against hand-computed two-machine schedules
(barrier stalls, FIFO first-ready dispatch, bounded repartitioning
bandwidth), event-ordering determinism, the `SimBackend` agreement with the
makespan model on single-query no-contention workloads.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.common.errors import ExecutionError
from repro.common.query import join_query, scan_query
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.exec import Task, TaskKind, TaskSchedule, compile_plan
from repro.sim import ClusterSimulator, task_dependencies
from repro.workloads.tpch_queries import tpch_query


def task(task_id, cost, kind=TaskKind.SCAN, stage=0, join_index=None):
    return Task(
        task_id=task_id, kind=kind, cost_units=cost, stage=stage, join_index=join_index
    )


def schedule_of(num_machines, assignments):
    """Build a TaskSchedule from {machine: [tasks]} without the scheduler."""
    full = {m: list(assignments.get(m, [])) for m in range(num_machines)}
    return TaskSchedule(num_machines=num_machines, assignments=full)


class TestTaskDependencies:
    def test_reduce_depends_on_same_join_maps_only(self):
        tasks = [
            task(0, 1.0, TaskKind.SHUFFLE_MAP, join_index=0),
            task(1, 1.0, TaskKind.SHUFFLE_MAP, join_index=1),
            task(2, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0),
            task(3, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=1),
            task(4, 1.0),  # scan: no dependencies
        ]
        deps = task_dependencies(tasks)
        assert deps[2] == {0}
        assert deps[3] == {1}
        assert deps[0] == deps[1] == deps[4] == set()

    def test_stage_fallback_without_maps(self):
        """A stage>0 task with no producing maps waits on all lower stages."""
        tasks = [task(0, 1.0), task(1, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=9)]
        deps = task_dependencies(tasks)
        assert deps[1] == {0}


class TestSimulatorCore:
    def test_no_barrier_completion_equals_makespan(self):
        sched = schedule_of(2, {0: [task(0, 4.0)], 1: [task(1, 2.0), task(2, 1.0)]})
        sim = ClusterSimulator(num_machines=2)
        sim.submit(sched)
        report = sim.run()
        assert report.finished_at == pytest.approx(sched.makespan)
        assert report.machine_busy_seconds == pytest.approx([4.0, 3.0])

    def test_barrier_stalls_hand_computed_two_machine_schedule(self):
        """Reduces wait for the slowest producing map; sim > makespan.

        machine 0: map cost 4, then reduce cost 1
        machine 1: map cost 2, then reduce cost 3

        Maps finish at t=4 and t=2.  Both reduces become ready at t=4
        (machine 1 idles from 2 to 4).  Machine 0 finishes 4+1=5, machine 1
        finishes 4+3=7.  The makespan model would report max(5, 5) = 5.
        """
        m0 = task(0, 4.0, TaskKind.SHUFFLE_MAP, join_index=0)
        m1 = task(1, 2.0, TaskKind.SHUFFLE_MAP, join_index=0)
        r0 = task(2, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)
        r1 = task(3, 3.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)
        sched = schedule_of(2, {0: [m0, r0], 1: [m1, r1]})
        assert sched.makespan == pytest.approx(5.0)
        sim = ClusterSimulator(num_machines=2)
        sim.submit(sched)
        report = sim.run()
        assert report.finished_at == pytest.approx(7.0)
        # Machine 1 was busy 2 (map) + 3 (reduce) = 5 of 7 seconds.
        assert report.machine_busy_seconds == pytest.approx([5.0, 5.0])
        # The reduce on machine 1 waited 0 after ready; queueing counts only
        # runnable-but-waiting time, not barrier time.
        assert report.jobs[0].queueing_seconds == pytest.approx(0.0)

    def test_machine_skips_blocked_task_for_ready_one(self):
        """First-ready dispatch: a ready scan overtakes a blocked reduce."""
        m0 = task(0, 5.0, TaskKind.SHUFFLE_MAP, join_index=0)
        blocked = task(1, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)
        ready = task(2, 2.0)
        sched = schedule_of(2, {0: [m0], 1: [blocked, ready]})
        sim = ClusterSimulator(num_machines=2)
        sim.submit(sched)
        report = sim.run()
        # scan runs 0-2, map 0-5, reduce 5-6.
        assert report.finished_at == pytest.approx(6.0)
        starts = {
            task_id: time
            for time, _job, task_id, _machine, kind in sim.event_log
            if kind == "start"
        }
        assert starts[2] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(5.0)

    def test_repartition_bandwidth_serializes_tasks(self):
        jobs = {
            0: [task(0, 4.0, TaskKind.REPARTITION)],
            1: [task(1, 4.0, TaskKind.REPARTITION)],
        }
        unbounded = ClusterSimulator(num_machines=2, repartition_bandwidth=2)
        unbounded.submit(schedule_of(2, jobs))
        assert unbounded.run().finished_at == pytest.approx(4.0)

        bounded = ClusterSimulator(num_machines=2, repartition_bandwidth=1)
        bounded.submit(schedule_of(2, jobs))
        assert bounded.run().finished_at == pytest.approx(8.0)

    def test_repartition_contends_with_query_tasks_for_machines(self):
        """A bandwidth-stalled repartition does not block the machine."""
        repart = task(0, 4.0, TaskKind.REPARTITION)
        other_repart = task(1, 4.0, TaskKind.REPARTITION)
        scan = task(2, 1.0)
        sim = ClusterSimulator(num_machines=2, repartition_bandwidth=1)
        sim.submit(schedule_of(2, {0: [repart], 1: [other_repart, scan]}))
        report = sim.run()
        starts = {
            task_id: time
            for time, _job, task_id, _machine, kind in sim.event_log
            if kind == "start"
        }
        # Machine 1's repartition waits for bandwidth, so its scan runs first.
        assert starts[2] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(4.0)
        assert report.finished_at == pytest.approx(8.0)

    def test_event_order_is_deterministic(self):
        def run_once():
            sim = ClusterSimulator(num_machines=3, repartition_bandwidth=1)
            sim.submit(
                schedule_of(
                    3,
                    {
                        0: [task(0, 2.0, TaskKind.SHUFFLE_MAP, join_index=0),
                            task(3, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)],
                        1: [task(1, 2.0, TaskKind.REPARTITION), task(4, 2.0)],
                        2: [task(2, 2.0, TaskKind.REPARTITION)],
                    },
                )
            )
            sim.submit(schedule_of(3, {0: [task(0, 1.0)], 1: [task(1, 1.0)]}), arrival=1.0)
            sim.run()
            return list(sim.event_log)

        assert run_once() == run_once()

    def test_concurrent_jobs_interleave_and_each_gets_latency(self):
        sched = schedule_of(1, {0: [task(0, 2.0)]})
        sim = ClusterSimulator(num_machines=1)
        first = sim.submit(sched, arrival=0.0)
        second = sim.submit(schedule_of(1, {0: [task(0, 2.0)]}), arrival=0.0)
        report = sim.run()
        assert first.latency == pytest.approx(2.0)
        assert second.latency == pytest.approx(4.0)
        # The second job's task was runnable at arrival but waited 2s.
        assert second.queueing_seconds == pytest.approx(2.0)
        assert report.finished_at == pytest.approx(4.0)

    def test_empty_job_completes_instantly_and_fires_callback(self):
        completions = []
        sim = ClusterSimulator(num_machines=2)
        def record(job, time):
            completions.append((job.job_id, time))

        sim.on_job_complete = record
        sim.submit(schedule_of(2, {}), arrival=3.0)
        report = sim.run()
        assert completions == [(0, 3.0)]
        assert report.jobs[0].latency == 0.0

    def test_submit_rejects_oversized_schedule(self):
        sim = ClusterSimulator(num_machines=2)
        with pytest.raises(ExecutionError):
            sim.submit(schedule_of(4, {3: [task(0, 1.0)]}))

    def test_utilisation_timeline_bins_cover_busy_time(self):
        sim = ClusterSimulator(num_machines=2)
        sim.submit(schedule_of(2, {0: [task(0, 4.0)], 1: [task(1, 4.0)]}))
        report = sim.run()
        bins = report.utilisation_timeline(bins=4)
        assert bins == pytest.approx([1.0, 1.0, 1.0, 1.0])
        assert report.utilisation() == pytest.approx([1.0, 1.0])


@pytest.fixture
def sim_session(tpch_tables):
    config = AdaptDBConfig(
        rows_per_block=512, buffer_blocks=4, seed=3, execution_backend="simulated"
    )
    session = Session(config=config)
    for name in ("lineitem", "orders", "customer"):
        session.load_table(tpch_tables[name])
    return session


class TestSimBackend:
    def test_selectable_via_config_and_use_backend(self, sim_session):
        assert sim_session.backend.name == "simulated"
        result = sim_session.run(tpch_query("q12", make_rng(1)), adapt=False)
        assert result.sim_seconds > 0.0
        sim_session.use_backend("tasks")
        result = sim_session.run(tpch_query("q12", make_rng(1)), adapt=False)
        assert result.sim_seconds == 0.0
        sim_session.use_backend("simulated")
        result = sim_session.run(tpch_query("q12", make_rng(1)), adapt=False)
        assert result.sim_seconds > 0.0

    def test_agreement_with_makespan_without_barriers(self, sim_session):
        """Scan-only plans have no stage-1 tasks: sim == makespan exactly."""
        result = sim_session.run(scan_query("lineitem"), adapt=False)
        assert result.makespan_seconds > 0.0
        assert result.sim_seconds == pytest.approx(result.makespan_seconds)

    def test_agreement_with_makespan_within_barrier_delta(self, tpch_tables):
        """Shuffle plans: makespan <= sim <= per-stage makespan sum."""
        config = AdaptDBConfig(
            rows_per_block=512, buffer_blocks=4, seed=3,
            execution_backend="simulated", force_join_method="shuffle",
        )
        session = Session(config=config)
        for name in ("lineitem", "orders"):
            session.load_table(tpch_tables[name])
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        physical = session.lower(session.plan(query, adapt=False))
        result = session.execute(physical)
        assert result.sim_seconds >= result.makespan_seconds - 1e-9
        per_stage = {}
        for machine_id, placed in physical.schedule.assignments.items():
            for t in placed:
                key = (t.stage, machine_id)
                per_stage[key] = per_stage.get(key, 0.0) + t.cost_units
        stage_makespans = {}
        for (stage, _machine), load in per_stage.items():
            stage_makespans[stage] = max(stage_makespans.get(stage, 0.0), load)
        barrier_bound = sum(stage_makespans.values())
        assert result.sim_seconds <= barrier_bound + 1e-9

    def test_same_answers_as_task_backend(self, sim_session, tpch_tables):
        query = tpch_query("q3", make_rng(5))
        sim_result = sim_session.run(query, adapt=False)
        config = AdaptDBConfig(
            rows_per_block=512, buffer_blocks=4, seed=3, execution_backend="tasks"
        )
        task_session = Session(config=config)
        for name in ("lineitem", "orders", "customer"):
            task_session.load_table(tpch_tables[name])
        task_result = task_session.run(query, adapt=False)
        assert sim_result.fingerprint() == task_result.fingerprint()
        assert sim_result.output_rows == task_result.output_rows
        assert sim_result.makespan_seconds == pytest.approx(task_result.makespan_seconds)

    def test_simulated_runs_are_deterministic(self, tpch_tables):
        def run_once():
            config = AdaptDBConfig(
                rows_per_block=512, buffer_blocks=4, seed=3,
                execution_backend="simulated",
            )
            session = Session(config=config)
            for name in ("lineitem", "orders"):
                session.load_table(tpch_tables[name])
            result = session.run(tpch_query("q12", make_rng(11)))
            return (
                result.sim_seconds,
                result.sim_queueing_seconds,
                tuple(result.sim_machine_busy_seconds),
            )

        assert run_once() == run_once()
