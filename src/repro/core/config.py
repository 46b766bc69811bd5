"""AdaptDB configuration.

One :class:`AdaptDBConfig` object captures every tunable studied in the
paper's sensitivity analysis (Section 7.4) plus the simulation-scale knobs
introduced by the reproduction (rows per block instead of 64 MB, etc.).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..common.errors import PlanningError


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
        min_frequency: Minimum number of window queries with a new join
            attribute before a tree is created for it (``fmin``).
        enable_smooth: Enable join-driven smooth repartitioning.
        enable_amoeba: Enable selection-driven Amoeba refinement.
        enable_pruning: Use partitioning trees to skip blocks; disabling this
            models the Full Scan baseline.
        force_join_method: ``None`` (cost-based choice), ``"shuffle"`` or
            ``"hyper"`` to force a join algorithm for ablation runs.
        grouping_algorithm: Block-grouping heuristic used by hyper-join.
        sample_size: Rows retained in each table's sample.
        replication: DFS replication factor (at least 1).
        seed: Seed for all randomized choices.
        shuffle_cost_factor: The cost model's ``CSJ`` constant (at least 1:
            a shuffled block costs no less than a block read).
        execution_backend: Which :class:`~repro.api.ExecutionBackend` a
            session executes through: ``"tasks"`` (the schedule interpreter
            run in-process) or ``"parallel"`` (the same interpreter on a
            persistent worker pool with shared-memory block transport,
            ``repro.parallel``).  Both report the paper's serial-sum model
            (``cost_units``, and ``runtime_seconds`` = cost units per
            machine), the schedule's makespan and the schedule itself on
            each result.
        num_workers: Worker processes of the parallel backend; ``None``
            means one worker per modelled machine.
        worker_start_method: ``multiprocessing`` start method for the
            parallel backend's pool (``"fork"`` / ``"spawn"`` /
            ``"forkserver"``); ``None`` picks ``fork`` where available,
            else ``spawn``.
        plan_cache_size: Capacity of the session's epoch-keyed plan cache
            (entries); ``0`` disables plan caching entirely.  An entry
            serves only the exact table epochs it was planned at.
        persistence: ``"memory"`` (default; blocks live purely in RAM) or
            ``"mmap"`` — blocks spill to memory-mapped one-per-version files
            under ``storage_root``, all reads route through a byte-budgeted
            block buffer, and ``Session.checkpoint()`` / ``Session.open()``
            provide epoch-aware crash recovery.  The default can be
            overridden with the ``REPRO_PERSISTENCE`` environment variable
            (an explicit constructor argument always wins).
        storage_root: Directory holding the spill files and checkpoint of an
            ``"mmap"`` session.  ``None`` lets the session create a unique
            temporary root (under ``REPRO_STORAGE_ROOT`` when that is set).
        buffer_bytes: Byte budget of the block buffer; ``None`` means
            unbounded (blocks spill only at checkpoints).  Only meaningful
            with ``persistence="mmap"``.  When unset, ``REPRO_BUFFER_BYTES``
            (a non-negative integer; ``0`` means unbounded) supplies a
            default for mmap sessions.
    """

    num_machines: int = 10
    rows_per_block: int = 2048
    buffer_blocks: int = 16
    window_size: int = 10
    join_level_fraction: float = 0.5
    join_levels_override: int | None = None
    min_frequency: int = 1
    enable_smooth: bool = True
    enable_amoeba: bool = True
    enable_pruning: bool = True
    force_join_method: str | None = None
    grouping_algorithm: str = "bottom_up"
    sample_size: int = 10_000
    replication: int = 3
    seed: int = 20170101
    shuffle_cost_factor: float = 3.0
    execution_backend: str = "tasks"
    num_workers: int | None = None
    worker_start_method: str | None = None
    plan_cache_size: int = 64
    persistence: str = ""
    storage_root: str | None = None
    buffer_bytes: int | None = None

    def __post_init__(self) -> None:
        # Resolve the persistence knobs against the environment first: an
        # empty persistence field means "unset", which REPRO_PERSISTENCE may
        # default (the CI persistence job runs the whole tier-1 suite this
        # way); an explicit constructor argument always wins.  The resolved
        # values are written back so a checkpointed config round-trips.
        if not self.persistence:
            self.persistence = os.environ.get("REPRO_PERSISTENCE", "") or "memory"
        if (
            self.buffer_bytes is None
            and self.persistence == "mmap"
            and os.environ.get("REPRO_BUFFER_BYTES", "")
        ):
            raw_budget = os.environ["REPRO_BUFFER_BYTES"]
            try:
                env_budget = int(raw_budget)
            except ValueError:
                env_budget = -1  # reported with the negative case below
            if env_budget < 0:
                raise PlanningError(
                    "REPRO_BUFFER_BYTES must be a non-negative integer "
                    f"(0 means unbounded), got {raw_budget!r}"
                )
            self.buffer_bytes = env_budget or None
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
        if self.replication < 1:
            raise PlanningError("replication must be at least 1")
        if self.shuffle_cost_factor < 1.0:
            raise PlanningError("shuffle_cost_factor must be at least 1")
        if self.force_join_method not in (None, "shuffle", "hyper"):
            raise PlanningError("force_join_method must be None, 'shuffle' or 'hyper'")
        if self.execution_backend not in ("tasks", "parallel"):
            raise PlanningError("execution_backend must be 'tasks' or 'parallel'")
        if self.num_workers is not None and self.num_workers < 1:
            raise PlanningError("num_workers must be at least 1 (or None)")
        if self.worker_start_method not in (None, "fork", "spawn", "forkserver"):
            raise PlanningError(
                "worker_start_method must be None, 'fork', 'spawn' or 'forkserver'"
            )
        if self.plan_cache_size < 0:
            raise PlanningError("plan_cache_size must be non-negative")
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
