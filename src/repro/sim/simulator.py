"""A deterministic discrete-event simulator for task schedules.

The execution engine's makespan model sums each machine's assigned cost and
takes the maximum — it ignores *when* tasks can actually run.  This module
plays a :class:`~repro.exec.tasks.TaskSchedule` out on virtual machines
instead:

* every machine owns a FIFO task queue (placement order) and runs one task
  at a time; a machine picks the first *ready* task in its queue and idles
  when none is ready,
* shuffle-reduce tasks are held back by a **stage barrier**: a reduce for
  join ``j`` becomes ready only once every shuffle-map task of join ``j``
  has finished (other stage>0 tasks wait on all lower-stage tasks of their
  job),
* repartition tasks additionally contend for a **bounded
  repartitioning-bandwidth** resource: at most ``repartition_bandwidth``
  of them run cluster-wide at any instant, so adaptation work queues behind
  itself and competes with query tasks for machine time,
* multiple jobs (queries, background repartitioning streams) share the same
  machines; their tasks interleave in arrival order.

Everything is deterministic: the event queue breaks time ties on a
monotonic sequence number, machines dispatch in id order, and queues are
scanned in placement order — the same submissions always produce the same
event trace, which the determinism tests rely on.

Time is modelled seconds: one cost unit (block access) takes one second,
the same conversion the cost model's ``makespan_seconds`` uses, so simulated
and makespan completion times are directly comparable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from ..common.errors import ExecutionError
from ..exec.tasks import Task, TaskKind, TaskSchedule

#: Event-kind labels.  Equal-timestamp events are processed in *insertion*
#: order (the heap tuple is ``(time, seq, kind, payload)`` and ``seq`` is
#: unique and monotonic) — the kind never participates in ordering, and idle
#: machines are re-dispatched after every event either way.
_FINISH = 0
_ARRIVAL = 1


def task_dependencies(tasks: list[Task]) -> dict[int, set[int]]:
    """Barrier dependencies of a job's tasks, keyed by task id.

    Shuffle-reduce tasks depend on every shuffle-map task of the same join
    (the producing maps).  Any other stage>0 task conservatively depends on
    every lower-stage task of the job.  Stage-0 tasks have no dependencies.
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


@dataclass
class _SimTask:
    """One task instance inside the simulator."""

    job: "JobStats"
    task: Task
    machine_id: int
    seconds: float
    deps_remaining: int
    dependents: list["_SimTask"] = field(default_factory=list)
    ready_time: float = 0.0
    started: float | None = None

    @property
    def needs_bandwidth(self) -> bool:
        return self.task.kind is TaskKind.REPARTITION


@dataclass
class JobStats:
    """Timing of one submitted job (a query's schedule, or background work).

    Attributes:
        job_id: Submission order (0-based).
        label: Caller-supplied tag (e.g. ``"query"`` / ``"repartition"``).
        arrival: Simulated time the job was submitted.
        started: Time its first task started running.
        finished: Time its last task finished (``None`` while running).
        tasks_total: Number of tasks in the job's schedule.
        queueing_seconds: Summed task waiting time — for every task, the gap
            between the moment it was runnable (arrived with its barrier
            open) and the moment a machine actually started it.
    """

    job_id: int
    label: str = "job"
    arrival: float = 0.0
    started: float | None = None
    finished: float | None = None
    tasks_total: int = 0
    tasks_done: int = 0
    queueing_seconds: float = 0.0

    @property
    def latency(self) -> float:
        """Completion time minus arrival time (0.0 for empty jobs)."""
        if self.finished is None:
            return 0.0
        return self.finished - self.arrival

    @property
    def mean_task_wait(self) -> float:
        """Average queueing delay per task."""
        if self.tasks_total == 0:
            return 0.0
        return self.queueing_seconds / self.tasks_total


@dataclass
class SimReport:
    """Outcome of one simulation run."""

    finished_at: float
    jobs: list[JobStats]
    machine_busy_seconds: list[float]
    busy_intervals: list[list[tuple[float, float]]]

    def utilisation(self) -> list[float]:
        """Busy fraction per machine over the whole run."""
        if self.finished_at <= 0.0:
            return [0.0] * len(self.machine_busy_seconds)
        return [busy / self.finished_at for busy in self.machine_busy_seconds]

    def utilisation_timeline(self, bins: int = 20) -> list[float]:
        """Cluster-mean busy fraction per time bin over ``[0, finished_at]``."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        if self.finished_at <= 0.0 or not self.busy_intervals:
            return [0.0] * bins
        width = self.finished_at / bins
        busy = [0.0] * bins
        for intervals in self.busy_intervals:
            for start, end in intervals:
                first = min(int(start / width), bins - 1)
                last = min(int(end / width), bins - 1) if end < self.finished_at else bins - 1
                for index in range(first, last + 1):
                    bin_start = index * width
                    bin_end = bin_start + width
                    busy[index] += max(0.0, min(end, bin_end) - max(start, bin_start))
        machines = len(self.busy_intervals)
        return [value / (width * machines) for value in busy]


@dataclass
class ClusterSimulator:
    """Discrete-event simulation of task schedules on a virtual cluster.

    Attributes:
        num_machines: Machines available (schedules must target this size).
        repartition_bandwidth: Maximum number of repartition tasks running
            cluster-wide at once; ``None`` leaves them unbounded.
        on_job_complete: Optional callback ``(job, finish_time)`` fired when
            a job's last task finishes; it may call :meth:`submit` to inject
            follow-up jobs.
    """

    num_machines: int
    repartition_bandwidth: int | None = None
    on_job_complete: Callable[[JobStats, float], None] | None = None

    jobs: list[JobStats] = field(default_factory=list, init=False)
    event_log: list[tuple] = field(default_factory=list, init=False)
    _queues: list[list[_SimTask]] = field(init=False)
    _busy_until: list[float | None] = field(init=False)
    _busy_intervals: list[list[tuple[float, float]]] = field(init=False)
    _events: list[tuple] = field(default_factory=list, init=False)
    _seq: int = field(default=0, init=False)
    _bandwidth_in_use: int = field(default=0, init=False)
    _now: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise ExecutionError("simulator needs at least one machine")
        if self.repartition_bandwidth is not None and self.repartition_bandwidth < 1:
            raise ExecutionError("repartition_bandwidth must be at least 1 (or None)")
        self._queues = [[] for _ in range(self.num_machines)]
        self._busy_until = [None] * self.num_machines
        self._busy_intervals = [[] for _ in range(self.num_machines)]

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self, schedule: TaskSchedule, arrival: float = 0.0, label: str = "job"
    ) -> JobStats:
        """Register ``schedule`` as a job arriving at ``arrival``.

        May be called before :meth:`run` or from an ``on_job_complete``
        callback while the simulation is running (arrival must then not lie
        in the past).
        """
        if schedule.num_machines > self.num_machines:
            raise ExecutionError(
                f"schedule targets {schedule.num_machines} machines, "
                f"simulator has {self.num_machines}"
            )
        arrival = max(arrival, self._now)
        tasks = schedule.tasks
        job = JobStats(
            job_id=len(self.jobs), label=label, arrival=arrival, tasks_total=len(tasks)
        )
        self.jobs.append(job)
        self._push(arrival, _ARRIVAL, (job, schedule))
        return job

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimReport:
        """Play every submitted job to completion and report the outcome."""
        while self._events:
            time, _seq, kind, payload = heapq.heappop(self._events)
            self._now = time
            if kind == _ARRIVAL:
                self._arrive(*payload)
            else:
                self._finish(payload)
            self._dispatch_idle_machines()
        pending = sum(len(queue) for queue in self._queues)
        if pending:
            raise ExecutionError(
                f"simulation deadlocked with {pending} tasks still queued"
            )
        finished_at = max((job.finished or 0.0) for job in self.jobs) if self.jobs else 0.0
        busy = [
            sum(end - start for start, end in intervals)
            for intervals in self._busy_intervals
        ]
        return SimReport(
            finished_at=finished_at,
            jobs=list(self.jobs),
            machine_busy_seconds=busy,
            busy_intervals=[list(intervals) for intervals in self._busy_intervals],
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    def _arrive(self, job: JobStats, schedule: TaskSchedule) -> None:
        """Materialise a job's tasks into the machine queues."""
        tasks = schedule.tasks
        dependencies = task_dependencies(tasks)
        placement = {
            task.task_id: machine_id
            for machine_id, placed in schedule.assignments.items()
            for task in placed
        }
        sim_tasks: dict[int, _SimTask] = {}
        for task in tasks:
            sim_tasks[task.task_id] = _SimTask(
                job=job,
                task=task,
                machine_id=placement[task.task_id],
                seconds=task.cost_units,
                deps_remaining=len(dependencies[task.task_id]),
                ready_time=self._now,
            )
        for task_id, deps in dependencies.items():
            for dep in sorted(deps):
                sim_tasks[dep].dependents.append(sim_tasks[task_id])
        # Queue in the engine's deterministic execution order: stage, then
        # compilation order (schedule.tasks is already sorted that way).
        for task in tasks:
            sim_task = sim_tasks[task.task_id]
            self._queues[sim_task.machine_id].append(sim_task)
        if not tasks:  # an empty schedule completes instantly
            job.started = self._now
            job.finished = self._now
            self.event_log.append((self._now, job.job_id, None, None, "empty"))
            if self.on_job_complete is not None:
                self.on_job_complete(job, self._now)

    def _finish(self, sim_task: _SimTask) -> None:
        """Complete a running task: free resources, open barriers."""
        machine_id = sim_task.machine_id
        self._busy_intervals[machine_id].append((sim_task.started, self._now))
        self._busy_until[machine_id] = None
        if sim_task.needs_bandwidth and self.repartition_bandwidth is not None:
            self._bandwidth_in_use -= 1
        job = sim_task.job
        job.tasks_done += 1
        self.event_log.append(
            (self._now, job.job_id, sim_task.task.task_id, machine_id, "finish")
        )
        for dependent in sim_task.dependents:
            dependent.deps_remaining -= 1
            if dependent.deps_remaining == 0:
                dependent.ready_time = self._now
        if job.tasks_done == job.tasks_total:
            job.finished = self._now
            if self.on_job_complete is not None:
                self.on_job_complete(job, self._now)

    def _dispatch_idle_machines(self) -> None:
        """Give every idle machine the first ready task in its queue."""
        for machine_id in range(self.num_machines):
            if self._busy_until[machine_id] is not None:
                continue
            queue = self._queues[machine_id]
            chosen = None
            for index, sim_task in enumerate(queue):
                if sim_task.deps_remaining > 0:
                    continue
                if (
                    sim_task.needs_bandwidth
                    and self.repartition_bandwidth is not None
                    and self._bandwidth_in_use >= self.repartition_bandwidth
                ):
                    continue
                chosen = index
                break
            if chosen is None:
                continue
            sim_task = queue.pop(chosen)
            if sim_task.needs_bandwidth and self.repartition_bandwidth is not None:
                self._bandwidth_in_use += 1
            sim_task.started = self._now
            job = sim_task.job
            if job.started is None:
                job.started = self._now
            job.queueing_seconds += self._now - max(sim_task.ready_time, job.arrival)
            self._busy_until[machine_id] = self._now + sim_task.seconds
            self.event_log.append(
                (self._now, job.job_id, sim_task.task.task_id, machine_id, "start")
            )
            self._push(self._now + sim_task.seconds, _FINISH, sim_task)
