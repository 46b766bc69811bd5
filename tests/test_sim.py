"""Tests for the barrier-aware runtime model, ``repro.exec.simulate``.

Covers the function against hand-computed two-machine schedules (barrier
stalls, FIFO first-ready dispatch, bounded repartitioning bandwidth), its
determinism, its bounds on random schedules, and the ``"simulated"`` runtime
model read off real results — whichever backend or persistence tier
produced them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.common.errors import ExecutionError
from repro.common.query import join_query, scan_query
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.exec import Task, TaskKind, TaskSchedule, simulate, task_dependencies
from repro.experiments.harness import runtime_seconds
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


@st.composite
def two_stage_schedules(draw):
    """Random placements of the shapes a plan compiles into: scans, hyper
    groups, repartitions and shuffle maps at stage 0, reduces at stage 1.

    Costs are multiples of 1/4 so every sum below is exact in floating
    point, whatever order it is accumulated in.
    """
    num_machines = draw(st.integers(min_value=1, max_value=4))
    stage0 = (TaskKind.SCAN, TaskKind.HYPER_GROUP, TaskKind.REPARTITION, TaskKind.SHUFFLE_MAP)
    assignments = {machine_id: [] for machine_id in range(num_machines)}
    for task_id in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(stage0 + (TaskKind.SHUFFLE_REDUCE,)))
        shuffle = kind in (TaskKind.SHUFFLE_MAP, TaskKind.SHUFFLE_REDUCE)
        placed = task(
            task_id,
            draw(st.integers(min_value=0, max_value=40)) / 4,
            kind,
            stage=int(kind is TaskKind.SHUFFLE_REDUCE),
            join_index=draw(st.integers(min_value=0, max_value=1)) if shuffle else None,
        )
        assignments[draw(st.integers(min_value=0, max_value=num_machines - 1))].append(placed)
    return TaskSchedule(num_machines=num_machines, assignments=assignments)


class TestSimulatorCore:
    def test_no_barrier_completion_equals_makespan(self):
        """No stage>0 task, repartitions within the bandwidth: no stalls."""
        sched = schedule_of(
            2,
            {
                0: [task(0, 4.0, TaskKind.REPARTITION)],
                1: [task(1, 2.0, TaskKind.REPARTITION), task(2, 1.0)],
            },
        )
        report = simulate(sched, repartition_bandwidth=2)
        assert report.finished_at == pytest.approx(sched.makespan)
        assert report.machine_busy_seconds == pytest.approx([4.0, 3.0])
        assert report.queueing_seconds == pytest.approx(2.0)  # task 2 waited for task 1

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
        report = simulate(sched)
        assert report.finished_at == pytest.approx(7.0)
        # Machine 1 was busy 2 (map) + 3 (reduce) = 5 of 7 seconds.
        assert report.machine_busy_seconds == pytest.approx([5.0, 5.0])
        # The reduce on machine 1 waited 0 after ready; queueing counts only
        # runnable-but-waiting time, not barrier time.
        assert report.queueing_seconds == pytest.approx(0.0)

    def test_machine_skips_blocked_task_for_ready_one(self):
        """First-ready dispatch: a ready reduce overtakes a blocked one."""
        slow_map = task(0, 5.0, TaskKind.SHUFFLE_MAP, join_index=0)
        fast_map = task(1, 1.0, TaskKind.SHUFFLE_MAP, join_index=1)
        blocked = task(2, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)
        ready = task(3, 2.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=1)
        sched = schedule_of(2, {0: [slow_map], 1: [fast_map, blocked, ready]})
        report = simulate(sched)
        # Machine 1: fast map 0-1, join 1's reduce 1-3 (queued behind join
        # 0's reduce, which waits for the slow map until 5), then 5-6.  A
        # machine that waited on its blocked reduce would finish at 8.
        assert report.finished_at == pytest.approx(6.0)
        assert report.queueing_seconds == pytest.approx(0.0)
        assert report.machine_busy_seconds == pytest.approx([5.0, 4.0])

    def test_repartition_bandwidth_serializes_tasks(self):
        jobs = {
            0: [task(0, 4.0, TaskKind.REPARTITION)],
            1: [task(1, 4.0, TaskKind.REPARTITION)],
        }
        assert simulate(schedule_of(2, jobs), 2).finished_at == pytest.approx(4.0)
        assert simulate(schedule_of(2, jobs), 1).finished_at == pytest.approx(8.0)

    def test_repartition_contends_with_query_tasks_for_machines(self):
        """A bandwidth-stalled repartition does not block the machine."""
        repart = task(0, 4.0, TaskKind.REPARTITION)
        other_repart = task(1, 4.0, TaskKind.REPARTITION)
        scan = task(2, 1.0)
        report = simulate(schedule_of(2, {0: [repart], 1: [other_repart, scan]}), 1)
        # Machine 1's repartition waits 0-4 for bandwidth, so its scan runs
        # first (0-1); a machine that held the scan back would finish at 9.
        assert report.finished_at == pytest.approx(8.0)
        assert report.queueing_seconds == pytest.approx(4.0)
        assert report.machine_busy_seconds == pytest.approx([4.0, 5.0])

    def test_event_order_is_deterministic(self):
        """Simultaneous finishes and contended bandwidth: equal reports."""
        def run_once():
            return simulate(
                schedule_of(
                    3,
                    {
                        0: [task(0, 2.0, TaskKind.SHUFFLE_MAP, join_index=0),
                            task(3, 1.0, TaskKind.SHUFFLE_REDUCE, stage=1, join_index=0)],
                        1: [task(1, 2.0, TaskKind.REPARTITION), task(4, 2.0)],
                        2: [task(2, 2.0, TaskKind.REPARTITION)],
                    },
                ),
                repartition_bandwidth=1,
            )

        assert run_once() == run_once()

    def test_empty_schedule_completes_at_zero(self):
        report = simulate(schedule_of(2, {}))
        assert report == (0.0, 0.0, [0.0, 0.0])

    def test_bandwidth_below_one_is_rejected(self):
        with pytest.raises(ExecutionError):
            simulate(schedule_of(1, {0: [task(0, 1.0, TaskKind.REPARTITION)]}), 0)

    @settings(max_examples=200, deadline=None)
    @given(two_stage_schedules())
    def test_completion_lies_between_makespan_and_per_stage_makespans(self, sched):
        """With bandwidth never binding, only the barrier can stall:
        makespan <= completion <= sum over stages of that stage's makespan,
        and every cost unit is run exactly once."""
        repartitions = sum(t.kind is TaskKind.REPARTITION for _, t in sched.placements())
        report = simulate(sched, repartition_bandwidth=max(repartitions, 1))
        stage_loads = [[0.0] * sched.num_machines for _ in range(2)]
        for machine_id, placed in sched.placements():
            stage_loads[placed.stage][machine_id] += placed.cost_units
        assert sched.makespan <= report.finished_at <= sum(map(max, stage_loads))
        assert sum(report.machine_busy_seconds) == sched.total_cost
        if not any(t.stage for _, t in sched.placements()):
            assert report.finished_at == sched.makespan


def make_session(tpch_tables, names=("lineitem", "orders", "customer"), **overrides):
    config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3, **overrides)
    session = Session(config=config)
    for name in names:
        session.load_table(tpch_tables[name])
    return session


class TestSimulatedModel:
    def test_agreement_with_makespan_without_barriers(self, tpch_tables):
        """Scan-only plans have no stage-1 tasks: sim == makespan exactly."""
        result = make_session(tpch_tables).run(scan_query("lineitem"), adapt=False)
        assert result.makespan_cost_units > 0.0
        assert runtime_seconds(result, "simulated") == result.makespan_cost_units

    def test_agreement_with_makespan_within_barrier_delta(self, tpch_tables):
        """Shuffle plans: makespan <= sim <= per-stage makespan sum."""
        session = make_session(
            tpch_tables, ("lineitem", "orders"), force_join_method="shuffle"
        )
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        result = session.run(query, adapt=False)
        simulated = runtime_seconds(result, "simulated")
        assert simulated >= result.makespan_cost_units - 1e-9
        per_stage = {}
        for machine_id, placed in result.schedule.placements():
            key = (placed.stage, machine_id)
            per_stage[key] = per_stage.get(key, 0.0) + placed.cost_units
        stage_makespans = {}
        for (stage, _machine), load in per_stage.items():
            stage_makespans[stage] = max(stage_makespans.get(stage, 0.0), load)
        assert simulated <= sum(stage_makespans.values()) + 1e-9

    def test_same_value_from_parallel_and_mmap_results(self, tpch_tables, tmp_path):
        """The model reads the result's schedule, so it does not matter
        which backend ran the plan or where the blocks lived."""
        query = tpch_query("q3", make_rng(5))
        session = make_session(tpch_tables, force_join_method="shuffle", num_workers=2)
        physical = session.lower(session.plan(query, adapt=False))
        by_tasks = session.execute(physical)
        session.use_backend("parallel")
        try:
            by_pool = session.execute(physical)
        finally:
            session.close()
        assert by_pool.schedule is by_tasks.schedule is physical.schedule
        assert by_pool.fingerprint() == by_tasks.fingerprint()
        expected = runtime_seconds(by_tasks, "simulated")
        assert expected > by_tasks.makespan_cost_units  # the shuffle barrier stalls
        assert runtime_seconds(by_pool, "simulated") == expected

        spilled = make_session(
            tpch_tables, force_join_method="shuffle", persistence="mmap",
            storage_root=str(tmp_path / "root"), buffer_bytes=96_000,
        )
        try:
            from_disk = spilled.run(query, adapt=False)
        finally:
            spilled.close()
        assert from_disk.fingerprint() == by_tasks.fingerprint()
        assert runtime_seconds(from_disk, "simulated") == expected

    def test_simulated_runs_are_deterministic(self, tpch_tables):
        def run_once():
            session = make_session(tpch_tables, ("lineitem", "orders"))
            result = session.run(tpch_query("q12", make_rng(11)))
            return runtime_seconds(result, "simulated"), simulate(result.schedule)

        assert run_once() == run_once()
