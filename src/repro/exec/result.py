"""Per-query accounting produced by the execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.query import Query
from .tasks import TaskSchedule, straggler_factor


@dataclass
class JoinStats:
    """I/O and output accounting for one executed join."""

    method: str
    build_blocks_read: int = 0
    probe_blocks_read: int = 0
    shuffled_blocks: int = 0
    output_rows: int = 0
    cost_units: float = 0.0
    probe_multiplicity: float = 1.0
    groups: int = 0

    @property
    def total_blocks_read(self) -> int:
        """Block reads of both sides.  A hyper-join reads a probe block once
        per group that probes it (eq. 2's ``C_HyJ · blocks(S)``); a shuffle
        join reads every block once."""
        return self.build_blocks_read + self.probe_blocks_read


@dataclass
class QueryResult:
    """Outcome and accounting of one executed query.

    Attributes:
        query: The executed query.
        output_rows: Cardinality of the query's *final* join (the answer the
            query returns); for pure-scan queries, the number of matching
            rows.  Per-join cardinalities live in ``join_stats``.
        scan_output_rows: Rows matched by pure scans (tables not taking part
            in any join), accounted separately from join output so mixed
            scan+join queries report both.
        blocks_read: Block reads by scans and joins, counted per read: a
            hyper-join probe block probed by three groups counts three times.
        blocks_repartitioned: Blocks rewritten by adaptation during this query.
        shuffled_blocks: Blocks that went through a shuffle.
        cost_units: Total modelled cost in block accesses (the serial sum).
        machine_cost_units: Scheduled cost per machine (index = machine id).
        schedule: The task schedule the result was produced from — the very
            object the physical plan (and the plan cache) holds, never a
            copy — so :func:`~repro.exec.tasks.simulate` can be evaluated on
            demand.  Excluded from :meth:`fingerprint` and ``repr``.
        tasks_scheduled: Number of tasks the plan compiled into.
        join_methods: Join algorithm used per join clause.
        join_stats: Detailed per-join statistics.
        trees_created: New partitioning trees created while adapting.
        planning_seconds: Wall-clock time the session spent planning the
            query (adaptation + logical planning + lowering).  Excluded from
            :meth:`fingerprint` because it is measured, not modelled.
        plan_cache_hit: Whether the session served the plan from its
            epoch-keyed plan cache instead of planning from scratch.
        wall_seconds: Measured wall-clock time of the execution, populated
            only by the multi-core ``ParallelBackend`` (zero elsewhere).
            Excluded from :meth:`fingerprint` — it is measured, not modelled.
        machine_wall_seconds: Measured wall-clock task time per machine
            (index = machine id), populated only by the parallel backend.
            Also excluded from :meth:`fingerprint`.
        buffer_hits: Block-buffer hits during this execution (persistent
            sessions only; zero for in-memory sessions).  Excluded from
            :meth:`fingerprint` — buffer behaviour must never change
            answers or plans, only where bytes were read from.
        buffer_faults: Spilled blocks materialized from disk during this
            execution.  Excluded from :meth:`fingerprint`.
        buffer_evictions: Blocks evicted from the buffer during this
            execution.  Excluded from :meth:`fingerprint`.
    """

    query: Query
    output_rows: int = 0
    scan_output_rows: int = 0
    blocks_read: int = 0
    blocks_repartitioned: int = 0
    shuffled_blocks: int = 0
    cost_units: float = 0.0
    machine_cost_units: list[float] = field(default_factory=list)
    schedule: TaskSchedule | None = field(default=None, repr=False)
    tasks_scheduled: int = 0
    join_methods: list[str] = field(default_factory=list)
    join_stats: list[JoinStats] = field(default_factory=list)
    trees_created: int = 0
    planning_seconds: float = 0.0
    plan_cache_hit: bool = False
    wall_seconds: float = 0.0
    machine_wall_seconds: list[float] = field(default_factory=list)
    buffer_hits: int = 0
    buffer_faults: int = 0
    buffer_evictions: int = 0

    def fingerprint(self) -> tuple:
        """Stable digest of every decision-dependent field of the result.

        Two executions of the same query against the same partition state
        must produce equal fingerprints — the plan-cache tests and the
        layered benchmark compare cached vs. cold runs through this.
        Wall-clock measurements (``planning_seconds``, ``wall_seconds``,
        ``machine_wall_seconds``), cache provenance (``plan_cache_hit``) and
        buffer traffic (``buffer_hits`` / ``buffer_faults`` /
        ``buffer_evictions``) are deliberately excluded, which is what lets
        the parallel backend — and the mmap persistence tier — produce
        fingerprints bit-identical to the in-memory task backend.
        """
        return (
            self.output_rows,
            self.scan_output_rows,
            self.blocks_read,
            self.blocks_repartitioned,
            self.shuffled_blocks,
            round(self.cost_units, 9),
            round(self.makespan_cost_units, 9),
            tuple(round(load, 9) for load in self.machine_cost_units),
            self.tasks_scheduled,
            tuple(self.join_methods),
            self.trees_created,
        )

    @property
    def runtime_seconds(self) -> float:
        """The paper's serial model as modelled seconds: the cost sum spread
        perfectly over the cluster (``cost_units / num_machines``)."""
        return self.cost_units / max(len(self.machine_cost_units), 1)

    @property
    def makespan_cost_units(self) -> float:
        """The most loaded machine's cost — the schedule's parallel
        completion time, stragglers included (0.0 when nothing ran)."""
        return max(self.machine_cost_units, default=0.0)

    @property
    def straggler_factor(self) -> float:
        """Makespan relative to a perfectly balanced cluster (>= 1.0)."""
        return straggler_factor(self.machine_cost_units)

    @property
    def parallel_speedup(self) -> float:
        """Serial cost sum over makespan: the speedup the schedule achieves."""
        if self.makespan_cost_units <= 0.0:
            return 1.0
        return self.cost_units / self.makespan_cost_units
