"""AdaptDB configuration.

One :class:`AdaptDBConfig` object captures every tunable studied in the
paper's sensitivity analysis (Section 7.4) plus the simulation-scale knobs
introduced by the reproduction (rows per block instead of 64 MB, etc.).
A config is what its constructor was given: nothing is read from the
process environment.  Values no caller varies are constants of the code
that reads them (``CostModel.shuffle_factor``, ``dfs.DEFAULT_REPLICATION``,
``sampling.DEFAULT_SAMPLE_SIZE``, ``smooth.DEFAULT_MIN_FREQUENCY``,
``PlanCache``'s capacity, ``WorkerPool``'s start method).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import PlanningError

#: Fields that must hold an ``int`` (``bool`` excluded); ``None`` is allowed
#: where the field's default is ``None``.
_INTEGER_FIELDS = (
    "num_machines",
    "rows_per_block",
    "buffer_blocks",
    "window_size",
    "num_workers",
    "join_levels_override",
    "buffer_bytes",
)


@dataclass
class AdaptDBConfig:
    """Configuration of one AdaptDB instance.

    Attributes:
        num_machines: Worker nodes in the modelled cluster (paper: 10).
        rows_per_block: Target rows per storage block (stand-in for the 64 MB
            HDFS block size).
        buffer_blocks: Memory budget ``B`` of the hyper-join — how many
            build-side blocks fit in one worker's hash-table memory
            (Figure 14 sweeps this).
        window_size: Query-window length ``|W|`` (Figure 15 sweeps this).
        join_level_fraction: Fraction of tree levels reserved for the join
            attribute in two-phase trees (Figure 16 sweeps this; paper
            default is one half).
        join_levels_override: Absolute number of join levels (at least 0);
            overrides the fraction when not ``None``.
        enable_smooth: Enable join-driven smooth repartitioning.
        enable_amoeba: Enable selection-driven Amoeba refinement.
        enable_pruning: Use partitioning trees to skip blocks; disabling this
            models the Full Scan baseline.
        force_join_method: ``None`` (cost-based choice), ``"shuffle"`` or
            ``"hyper"`` to force a join algorithm for ablation runs.
        seed: Seed for all randomized choices.
        execution_backend: The backend a session executes through, by name:
            ``"tasks"`` (the schedule interpreter run in-process) or
            ``"parallel"`` (the same interpreter on a persistent worker pool
            with shared-memory block transport, ``repro.parallel``).  Both
            report the paper's serial-sum model (``cost_units``, and
            ``runtime_seconds`` = cost units per machine), the schedule's
            makespan and the schedule itself on each result.
        num_workers: Worker processes of the parallel backend; ``None``
            means one worker per modelled machine.
        persistence: ``"memory"`` (default; blocks live purely in RAM) or
            ``"mmap"`` — blocks spill to memory-mapped one-per-version files
            under ``storage_root``, all reads route through a byte-budgeted
            block buffer, and ``Session.checkpoint()`` / ``Session.open()``
            provide epoch-aware crash recovery.
        storage_root: Directory holding the spill files and checkpoint of an
            ``"mmap"`` session.  ``None`` lets the session create a unique
            ``repro-storage-*`` directory under the system temp dir.
        buffer_bytes: Byte budget of the block buffer; ``None`` means
            unbounded (blocks spill only at checkpoints).  Only meaningful
            with ``persistence="mmap"``.
    """

    num_machines: int = 10
    rows_per_block: int = 2048
    buffer_blocks: int = 16
    window_size: int = 10
    join_level_fraction: float = 0.5
    join_levels_override: int | None = None
    enable_smooth: bool = True
    enable_amoeba: bool = True
    enable_pruning: bool = True
    force_join_method: str | None = None
    seed: int = 20170101
    execution_backend: str = "tasks"
    num_workers: int | None = None
    persistence: str = "memory"
    storage_root: str | None = None
    buffer_bytes: int | None = None

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise PlanningError(f"{name} must be an int, got {value!r}")
        if self.num_machines < 1:
            raise PlanningError("num_machines must be at least 1")
        if self.rows_per_block <= 0:
            raise PlanningError("rows_per_block must be positive")
        if self.buffer_blocks < 1:
            raise PlanningError("buffer_blocks must be at least 1")
        if self.window_size < 1:
            raise PlanningError("window_size must be at least 1")
        if not 0.0 <= self.join_level_fraction <= 1.0:
            raise PlanningError("join_level_fraction must be in [0, 1]")
        if self.join_levels_override is not None and self.join_levels_override < 0:
            raise PlanningError("join_levels_override must be at least 0 (or None)")
        if self.force_join_method not in (None, "shuffle", "hyper"):
            raise PlanningError("force_join_method must be None, 'shuffle' or 'hyper'")
        if self.execution_backend not in ("tasks", "parallel"):
            raise PlanningError("execution_backend must be 'tasks' or 'parallel'")
        if self.num_workers is not None and self.num_workers < 1:
            raise PlanningError("num_workers must be at least 1 (or None)")
        if self.persistence not in ("memory", "mmap"):
            raise PlanningError("persistence must be 'memory' or 'mmap'")
        if self.persistence == "memory":
            if self.storage_root is not None:
                raise PlanningError(
                    "storage_root is only meaningful with persistence='mmap'"
                )
            if self.buffer_bytes is not None:
                raise PlanningError(
                    "buffer_bytes is only meaningful with persistence='mmap'"
                )
        if self.buffer_bytes is not None and self.buffer_bytes < 1:
            raise PlanningError("buffer_bytes must be at least 1 (or None)")
