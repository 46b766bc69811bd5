"""Concurrent-query workload driver on top of the cluster simulator.

The paper's runtime claims come from a cluster serving *streams* of queries
while repartitioning competes for I/O — the serial and makespan models can
only score one query at a time.  This driver admits multiple **closed-loop
clients**: each client submits a query, waits for its simulated completion,
thinks for a seeded exponential pause, and submits its next query; an
optional background repartitioning stream occupies machines and the bounded
repartitioning bandwidth for the whole run.

Planning and scheduling go through the session (so adaptation, the plan
cache and the locality-aware scheduler all apply); the simulator then
interleaves every job's tasks on the shared virtual machines.  Plans are
produced in a fixed round-robin client order *before* the simulation, so
the partition state a query is planned at does not depend on simulated
timing — given a seed, the whole run (plans, arrival order, every event) is
reproducible bit for bit.

Reported per run: per-query latency percentiles, mean/max queueing delay,
machine utilisation (overall and as a binned timeline), and the completion
time of the whole workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..common.errors import ExecutionError
from ..common.query import Query
from ..common.rng import derive_rng, make_rng
from ..exec.tasks import Task, TaskKind, TaskSchedule
from .simulator import ClusterSimulator


@dataclass
class QueryTiming:
    """Simulated timing of one client query."""

    client: int
    index: int
    arrival: float
    finished: float
    latency: float
    queueing_seconds: float
    tasks: int


@dataclass
class WorkloadReport:
    """Outcome of one concurrent-workload simulation."""

    queries: list[QueryTiming]
    finished_at: float
    machine_busy_seconds: list[float]
    utilisation_bins: list[float]
    background_jobs: int = 0
    background_finished_at: float = 0.0

    @property
    def latencies(self) -> list[float]:
        """Per-query latencies in submission-completion order."""
        return [timing.latency for timing in self.queries]

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over every client query."""
        if not self.queries:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def percentiles(self) -> dict[str, float]:
        """The standard latency percentiles (p50/p90/p95/p99) plus mean/max."""
        latencies = self.latencies
        if not latencies:
            return {"p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0,
                    "mean": 0.0, "max": 0.0}
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "mean": float(np.mean(latencies)),
            "max": float(np.max(latencies)),
        }

    @property
    def mean_queueing_seconds(self) -> float:
        """Mean summed task-queueing delay per query."""
        if not self.queries:
            return 0.0
        return float(np.mean([timing.queueing_seconds for timing in self.queries]))

    def utilisation(self) -> list[float]:
        """Busy fraction per machine over the whole run."""
        if self.finished_at <= 0.0:
            return [0.0] * len(self.machine_busy_seconds)
        return [busy / self.finished_at for busy in self.machine_busy_seconds]

    def summary(self) -> dict:
        """JSON-able digest: percentiles, queueing, utilisation, completion."""
        percentiles = {key: round(value, 9) for key, value in self.percentiles().items()}
        utilisation = self.utilisation()
        return {
            "queries": len(self.queries),
            "finished_at": round(self.finished_at, 9),
            "latency": percentiles,
            "mean_queueing_seconds": round(self.mean_queueing_seconds, 9),
            "mean_utilisation": round(float(np.mean(utilisation)), 9)
            if utilisation else 0.0,
            "background_jobs": self.background_jobs,
        }

    def fingerprint(self) -> tuple:
        """Stable digest for run-to-run determinism checks."""
        return (
            round(self.finished_at, 9),
            tuple(
                (t.client, t.index, round(t.arrival, 9), round(t.finished, 9))
                for t in self.queries
            ),
            tuple(round(busy, 9) for busy in self.machine_busy_seconds),
        )


def background_repartition_schedule(
    num_machines: int,
    blocks: int,
    cost_model,
    chunk_blocks: int = 8,
    task_id_base: int = 0,
) -> TaskSchedule:
    """A schedule of repartition tasks rewriting ``blocks`` blocks.

    The blocks are spread round-robin over the machines in chunks of
    ``chunk_blocks`` (smaller chunks interleave more finely with query
    tasks); each task carries the cost model's repartition cost for its
    chunk and contends for the simulator's repartitioning bandwidth.
    """
    if blocks <= 0:
        return TaskSchedule(num_machines=num_machines, assignments={})
    assignments: dict[int, list[Task]] = {m: [] for m in range(num_machines)}
    task_id = task_id_base
    remaining = blocks
    machine = 0
    while remaining > 0:
        chunk = min(chunk_blocks, remaining)
        assignments[machine].append(
            Task(
                task_id=task_id,
                kind=TaskKind.REPARTITION,
                cost_units=cost_model.repartition_cost(chunk),
            )
        )
        task_id += 1
        remaining -= chunk
        machine = (machine + 1) % num_machines
    return TaskSchedule(num_machines=num_machines, assignments=assignments)


def run_concurrent_workload(
    session,
    client_queries: Sequence[Sequence[Query]],
    *,
    think_seconds: float = 0.0,
    arrival_stagger_seconds: float | None = None,
    seed: int = 0,
    adapt: bool = False,
    background_repartition_blocks: int = 0,
    background_chunk_blocks: int = 8,
    repartition_bandwidth: int | None = None,
) -> WorkloadReport:
    """Simulate closed-loop clients running their query lists concurrently.

    Args:
        session: A :class:`repro.api.Session` with tables loaded.  Plans go
            through the session (adaptation + plan cache apply); scheduling
            always uses the task scheduler regardless of the session's
            execution backend.
        client_queries: One query list per client; client ``c`` submits its
            queries in order, waiting for each to complete (plus think time)
            before the next.
        think_seconds: Mean of the seeded exponential think-time between a
            query's completion and the client's next submission (0 disables
            thinking — clients resubmit immediately).
        arrival_stagger_seconds: Upper bound of the seeded uniform offset of
            every client's *first* submission; defaults to ``think_seconds``.
        seed: Seed for arrival offsets and think times (plans are already
            deterministic through the session's own seed).
        adapt: Whether planning runs the adaptive repartitioner per query.
        background_repartition_blocks: If positive, a background stream
            rewriting this many blocks is submitted at time 0 and contends
            with query tasks for machines and repartitioning bandwidth.
        background_chunk_blocks: Blocks per background repartition task.
        repartition_bandwidth: Cluster-wide cap on concurrently running
            repartition tasks; defaults to the session config's
            ``sim_repartition_bandwidth``.

    Returns:
        A :class:`WorkloadReport` (deterministic given session state + seed).
    """
    if not client_queries or not any(len(queries) for queries in client_queries):
        raise ExecutionError("run_concurrent_workload needs at least one query")

    # Stage 1: plan and schedule every query in a fixed round-robin order so
    # partition state (and therefore every plan) is independent of simulated
    # timing.  Lowering goes through the session, so queries sharing a
    # template reuse both the logical entry and the compiled task schedule
    # from the epoch-keyed plan cache.
    schedules: list[list[TaskSchedule]] = [[] for _ in client_queries]
    rounds = max(len(queries) for queries in client_queries)
    for round_index in range(rounds):
        for client, queries in enumerate(client_queries):
            if round_index >= len(queries):
                continue
            physical = session.lower(session.plan(queries[round_index], adapt=adapt))
            schedules[client].append(physical.schedule)

    # Stage 2: seeded arrival offsets and think times, pre-drawn per client
    # so the draw order never depends on simulated completion order.
    root = make_rng(seed)
    stagger = think_seconds if arrival_stagger_seconds is None else arrival_stagger_seconds
    first_arrival: list[float] = []
    thinks: list[list[float]] = []
    for client, queries in enumerate(client_queries):
        rng = derive_rng(root, f"client:{client}")
        first_arrival.append(float(rng.uniform(0.0, stagger)) if stagger > 0 else 0.0)
        thinks.append(
            [
                float(rng.exponential(think_seconds)) if think_seconds > 0 else 0.0
                for _ in range(len(queries))
            ]
        )

    # Stage 3: closed-loop simulation.  Each job completion submits the
    # owning client's next query after its think pause.
    if repartition_bandwidth is None:
        repartition_bandwidth = session.config.sim_repartition_bandwidth
    simulator = ClusterSimulator(
        num_machines=session.cluster.num_machines,
        seconds_per_block=session.cluster.cost_model.seconds_per_block,
        repartition_bandwidth=repartition_bandwidth,
    )
    job_owner: dict[int, tuple[int, int]] = {}

    def submit(client: int, index: int, arrival: float) -> None:
        job = simulator.submit(
            schedules[client][index], arrival=arrival, label=f"client{client}"
        )
        job_owner[job.job_id] = (client, index)

    def on_complete(job, finish_time: float) -> None:
        owner = job_owner.get(job.job_id)
        if owner is None:  # background repartitioning stream
            return
        client, index = owner
        if index + 1 < len(schedules[client]):
            submit(client, index + 1, finish_time + thinks[client][index])

    simulator.on_job_complete = on_complete

    background_jobs = 0
    if background_repartition_blocks > 0:
        background = background_repartition_schedule(
            session.cluster.num_machines,
            background_repartition_blocks,
            session.cluster.cost_model,
            chunk_blocks=background_chunk_blocks,
        )
        simulator.submit(background, arrival=0.0, label="repartition")
        background_jobs = 1
    for client in range(len(client_queries)):
        if schedules[client]:
            submit(client, 0, first_arrival[client])

    report = simulator.run()

    timings = []
    background_finished = 0.0
    for job in report.jobs:
        owner = job_owner.get(job.job_id)
        if owner is None:
            background_finished = max(background_finished, job.finished or 0.0)
            continue
        client, index = owner
        timings.append(
            QueryTiming(
                client=client,
                index=index,
                arrival=job.arrival,
                finished=job.finished or 0.0,
                latency=job.latency,
                queueing_seconds=job.queueing_seconds,
                tasks=job.tasks_total,
            )
        )
    timings.sort(key=lambda timing: (timing.client, timing.index))
    return WorkloadReport(
        queries=timings,
        finished_at=report.finished_at,
        machine_busy_seconds=report.machine_busy_seconds,
        utilisation_bins=report.utilisation_timeline(bins=20),
        background_jobs=background_jobs,
        background_finished_at=background_finished,
    )
