"""Work units of the parallel execution engine, and their runtime models.

A query plan is compiled into :class:`Task` objects — the unit the scheduler
places and a simulated machine executes.  Tasks are pure descriptions (which
blocks to read, what share of the modelled cost they carry); all row-level
work happens in the engine so tasks stay cheap to create and schedule.

A finished :class:`TaskSchedule` is all a runtime model needs: the serial
sum (``total_cost``), the ``makespan`` and the barrier-aware completion time
(:func:`simulate`) are pure functions of it, all in modelled seconds (one
cost unit, a block access, takes one second).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from ..common.errors import ExecutionError

#: Repartition tasks :func:`simulate` lets run cluster-wide at any instant —
#: the bounded I/O budget adaptation work gets, so it queues behind itself
#: and contends with query tasks instead of spreading for free.
REPARTITION_BANDWIDTH = 2


class TaskKind(Enum):
    """The five work-unit shapes a query plan compiles into."""

    SCAN = "scan"
    SHUFFLE_MAP = "shuffle_map"
    SHUFFLE_REDUCE = "shuffle_reduce"
    HYPER_GROUP = "hyper_group"
    REPARTITION = "repartition"


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes:
        task_id: Unique id within the compiled plan (compilation order).
        kind: What the task does.
        cost_units: Modelled cost in block accesses; the scheduler balances
            machines on this value and the makespan is derived from it.
        table: Table read by scan tasks and shuffle-map tasks.
        block_ids: Blocks the task reads (build-side blocks for hyper-join
            group tasks).
        probe_block_ids: Probe-side blocks of a hyper-join group task.
        join_index: Index into the plan's join decisions, for join tasks.
        side: ``"build"`` or ``"probe"`` for shuffle-map tasks.
        partition_index: Shuffle partition a reduce task is responsible for.
        group_index: Hyper-join group a group task executes.
        stage: Barrier stage; stage 1 tasks (shuffle reducers) only run after
            every stage 0 task finished.
        replica_hints: Machine id -> how many of the task's blocks have a
            replica there.  The scheduler's locality signal.
        input_rows: Rows the task is sized from, when known — for shuffle
            reduce tasks, the actual per-partition row count gathered at
            compile time (the skew signal behind ``cost_units``).
    """

    task_id: int
    kind: TaskKind
    cost_units: float
    table: str | None = None
    block_ids: tuple[int, ...] = ()
    probe_block_ids: tuple[int, ...] = ()
    join_index: int | None = None
    side: str | None = None
    partition_index: int | None = None
    group_index: int | None = None
    stage: int = 0
    replica_hints: dict[int, int] = field(default_factory=dict)
    input_rows: int | None = None

    @property
    def read_block_ids(self) -> tuple[int, ...]:
        """Every block the task reads (build + probe sides)."""
        return self.block_ids + self.probe_block_ids

    def local_blocks_on(self, machine_id: int) -> int:
        """How many of the task's blocks have a replica on ``machine_id``."""
        return self.replica_hints.get(machine_id, 0)


@dataclass
class TaskSchedule:
    """A complete placement of tasks onto machines.

    Attributes:
        num_machines: Size of the cluster the schedule targets.
        assignments: Machine id -> tasks placed there (placement order).
    """

    num_machines: int
    assignments: dict[int, list[Task]]

    def placements(self) -> list[tuple[int, Task]]:
        """(machine id, task) pairs in deterministic execution order.

        Stage 0 tasks run before stage 1 tasks (the shuffle barrier); within
        a stage, compilation order.  The engine iterates this to execute.
        """
        pairs = [
            (machine_id, task)
            for machine_id, placed in self.assignments.items()
            for task in placed
        ]
        return sorted(pairs, key=lambda pair: (pair[1].stage, pair[1].task_id))

    @property
    def machine_loads(self) -> list[float]:
        """Total assigned cost per machine (index = machine id)."""
        loads = [0.0] * self.num_machines
        for machine_id, placed in self.assignments.items():
            loads[machine_id] += sum(task.cost_units for task in placed)
        return loads

    @property
    def total_cost(self) -> float:
        """Serial cost sum: what one machine running everything would pay."""
        return sum(self.machine_loads)

    @property
    def makespan(self) -> float:
        """Parallel completion time: the maximum per-machine load."""
        loads = self.machine_loads
        return max(loads) if loads else 0.0

    @property
    def locality_fraction(self) -> float:
        """Fraction of scheduled block reads served from a local replica.

        An empty schedule (a query whose relevant-block set is empty) reads
        nothing, so the fraction is defined as 0.0 — no read was local —
        while :attr:`straggler_factor` stays 1.0 (nobody straggled).
        """
        local = 0
        total = 0
        for machine_id, placed in self.assignments.items():
            for task in placed:
                blocks = len(task.read_block_ids)
                total += blocks
                local += min(blocks, task.local_blocks_on(machine_id))
        if total == 0:
            return 0.0
        return local / total


def straggler_factor(machine_loads: list[float]) -> float:
    """The most loaded machine relative to a perfectly balanced cluster.

    1.0 means every machine finished at the same time (or nothing ran);
    2.0 means the slowest machine carried twice the average load.
    """
    total = sum(machine_loads)
    if total <= 0.0:
        return 1.0
    return max(machine_loads) / (total / len(machine_loads))


def task_dependencies(tasks: list[Task]) -> dict[int, set[int]]:
    """Barrier dependencies of a schedule's tasks, keyed by task id.

    Shuffle-reduce tasks depend on every shuffle-map task of the same join
    (the producing maps).  Any other stage>0 task conservatively depends on
    every lower-stage task.  Stage-0 tasks have no dependencies.
    """
    maps_by_join: dict[int | None, set[int]] = {}
    for task in tasks:
        if task.kind is TaskKind.SHUFFLE_MAP:
            maps_by_join.setdefault(task.join_index, set()).add(task.task_id)
    dependencies: dict[int, set[int]] = {}
    for task in tasks:
        if task.stage == 0:
            dependencies[task.task_id] = set()
        elif task.kind is TaskKind.SHUFFLE_REDUCE and task.join_index in maps_by_join:
            dependencies[task.task_id] = set(maps_by_join[task.join_index])
        else:
            dependencies[task.task_id] = {
                other.task_id for other in tasks if other.stage < task.stage
            }
    return dependencies


class SimReport(NamedTuple):
    """What :func:`simulate` observed playing one schedule out.

    Attributes:
        finished_at: Completion time (makespan plus barrier/bandwidth stalls).
        queueing_seconds: Summed over tasks, the gap between a task becoming
            runnable (its barrier open) and its machine starting it.
        machine_busy_seconds: Busy time per machine (index = machine id).
    """

    finished_at: float
    queueing_seconds: float
    machine_busy_seconds: list[float]


def simulate(
    schedule: TaskSchedule, repartition_bandwidth: int = REPARTITION_BANDWIDTH
) -> SimReport:
    """Play ``schedule`` out event by event on its virtual machines.

    Where :attr:`TaskSchedule.makespan` assumes every machine runs its load
    back to back, this honours *when* tasks can run: every machine owns a
    FIFO queue (the interpreter's execution order) and runs the first
    *ready* task in it, idling when none is; a task is ready once its
    :func:`task_dependencies` have finished (a shuffle reduce waits for the
    maps of its own join, wherever they run), and at most
    ``repartition_bandwidth`` repartition tasks are in flight cluster-wide.
    Deterministic: machines dispatch in id order and simultaneous finishes
    are processed in start order (a sequence number breaks time ties).
    """
    if repartition_bandwidth < 1:
        raise ExecutionError("repartition_bandwidth must be at least 1")
    placements = schedule.placements()
    dependencies = task_dependencies([task for _, task in placements])
    blockers = {task_id: len(deps) for task_id, deps in dependencies.items()}
    dependents: dict[int, list[int]] = {task_id: [] for task_id in dependencies}
    for task_id, deps in dependencies.items():
        for dependency in sorted(deps):
            dependents[dependency].append(task_id)
    queues: list[list[Task]] = [[] for _ in range(schedule.num_machines)]
    for machine_id, task in placements:
        queues[machine_id].append(task)

    ready_at = dict.fromkeys(dependencies, 0.0)
    running: list[tuple[Task, float] | None] = [None] * schedule.num_machines
    busy = [0.0] * schedule.num_machines
    finishes: list[tuple[float, int, int]] = []  # (time, sequence, machine id)
    now = queueing = 0.0
    repartitions_in_flight = sequence = 0
    while True:
        for machine_id, queue in enumerate(queues):
            if running[machine_id] is not None:
                continue
            for index, task in enumerate(queue):
                if blockers[task.task_id] == 0 and (
                    task.kind is not TaskKind.REPARTITION
                    or repartitions_in_flight < repartition_bandwidth
                ):
                    break
            else:
                continue
            del queue[index]
            repartitions_in_flight += task.kind is TaskKind.REPARTITION
            queueing += now - ready_at[task.task_id]
            running[machine_id] = (task, now)
            heapq.heappush(finishes, (now + task.cost_units, sequence, machine_id))
            sequence += 1
        if not finishes:
            return SimReport(now, queueing, busy)
        now, _, machine_id = heapq.heappop(finishes)
        task, started = running[machine_id]
        running[machine_id] = None
        busy[machine_id] += now - started
        repartitions_in_flight -= task.kind is TaskKind.REPARTITION
        for dependent in dependents[task.task_id]:
            blockers[dependent] -= 1
            if blockers[dependent] == 0:
                ready_at[dependent] = now
