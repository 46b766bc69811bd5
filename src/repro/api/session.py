"""The session: the staged query-lifecycle entry point of the library.

A :class:`Session` owns one simulated cluster, DFS and catalog and takes
every query through three explicit stages::

    session = Session(AdaptDBConfig(rows_per_block=1024))
    session.load_table(table)

    logical  = session.plan(query)      # Query   -> LogicalPlan
    physical = session.lower(logical)   # Logical -> PhysicalPlan
    result   = session.execute(physical)  # Physical -> QueryResult

    result = session.run(query)         # the three stages in one call

Execution goes through one of two backends, picked by name: ``"tasks"``
(:class:`~repro.api.backends.TaskBackend`, the schedule interpreter run
in-process) or ``"parallel"`` (:class:`~repro.parallel.ParallelBackend`, the
same interpreter over a worker pool).  ``AdaptDBConfig.execution_backend``
picks the one a session starts with, and :meth:`Session.use_backend`
switches.  Both share the session's one
:class:`~repro.exec.engine.Executor`; the modelled runtimes (serial,
makespan, simulated) are reads of every result.

Planning is cached: every :class:`~repro.storage.table.StoredTable` mutation
bumps a per-table epoch, and the session keeps a bounded plan cache keyed on
``(query signature, per-table epochs)``.  Repeated-template workloads reuse
relevant-block sets, overlap matrices, hyper-join groupings and the compiled
task schedule with bit-identical results; any mutation invalidates exactly
the affected tables' entries.  Adaptation always runs per query (it is part
of the query's semantics and cost) — only the planning after it is reused,
which is safe because adaptation work always bumps an epoch and therefore
forces a fresh plan.

Read statistics are scoped per execution: ``execute()`` resets the DFS and
per-machine read counters before running, and ``plan()``/``lower()`` never
touch them, so interleaved plan/run calls cannot skew locality accounting.

Sessions configured with ``persistence="mmap"`` additionally own a durable
storage tier (:mod:`repro.storage.persist`): blocks spill to memory-mapped
files under ``config.storage_root``, reads route through a byte-budgeted
block buffer, and :meth:`Session.checkpoint` / :meth:`Session.open` provide
epoch-aware crash recovery — a reopened session resumes with its partition
trees, epochs, block change stamps, samples, RNG states and adaptation
window intact, reproducing bit-identical query fingerprints.  A session
without ``config.storage_root`` generates a unique ``repro-storage-*`` root
under the system temp dir (:func:`tempfile.gettempdir`, which follows
``TMPDIR``); a generated root that was never checkpointed is removed once
nothing can read it any more, or at process exit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..adaptive.repartitioner import AdaptiveRepartitioner, RepartitionReport
from ..cluster.cluster import Cluster
from ..cluster.costmodel import CostModel
from ..common.errors import PlanningError, StorageError
from ..common.query import Query
from ..common.rng import derive_rng, make_rng
from ..core.config import AdaptDBConfig
from ..core.optimizer import Optimizer
from ..exec.engine import Executor
from ..exec.result import QueryResult
from ..exec.scheduler import Scheduler, compile_plan
from ..parallel.backend import ParallelBackend
from ..partitioning.tree import PartitioningTree
from ..partitioning.upfront import UpfrontPartitioner
from ..storage.catalog import Catalog
from ..storage.dfs import DistributedFileSystem
from ..storage.persist import PersistenceManager
from ..storage.persist.store import PersistentBlockStore
from ..storage.sampling import DEFAULT_SAMPLE_SIZE
from ..storage.table import ColumnTable, StoredTable
from .backends import TaskBackend
from .cache import CachedPlan, PlanCache, query_signature
from .plans import LogicalPlan, PhysicalPlan


def _remove_generated_root(root: Path, pid: int) -> None:
    """Remove a generated storage root nothing checkpointed.  Only the
    process that generated it removes it: a forked worker collecting its
    copy of the session leaves the root alone."""
    if os.getpid() == pid:
        shutil.rmtree(root, ignore_errors=True)


@dataclass
class Session:
    """One AdaptDB instance exposed through the staged query lifecycle.

    Attributes:
        config: Instance configuration.
        executor: The one schedule interpreter both backends run physical
            plans through.
        backends: The backends by name, ``"tasks"`` and ``"parallel"``.
        backend: The selected backend; ``config.execution_backend`` picks it
            and :meth:`use_backend` switches it.
    """

    config: AdaptDBConfig = field(default_factory=AdaptDBConfig)
    #: Internal: a pre-opened manager holding a checkpoint to restore from;
    #: set only by :meth:`Session.open`.
    _restore_manager: PersistenceManager | None = field(default=None, repr=False)
    persist: PersistenceManager | None = field(init=False, default=None)
    #: Removes a generated storage root; :meth:`checkpoint` detaches it.
    _remove_root: weakref.finalize[[Path, int], PersistentBlockStore] | None = field(
        init=False, default=None, repr=False
    )
    rng: np.random.Generator = field(init=False)
    cluster: Cluster = field(init=False)
    dfs: DistributedFileSystem = field(init=False)
    catalog: Catalog = field(init=False)
    repartitioner: AdaptiveRepartitioner = field(init=False)
    optimizer: Optimizer = field(init=False)
    plan_cache: PlanCache = field(init=False)
    executor: Executor = field(init=False)
    backends: dict[str, TaskBackend | ParallelBackend] = field(init=False)
    backend: TaskBackend | ParallelBackend = field(init=False)

    def __post_init__(self) -> None:
        # The construction (and rng-derivation) order below is load-bearing:
        # seeded runs keep their decision fingerprints (and the golden
        # digests in tests/test_integration.py stay valid) only while it is
        # unchanged.
        self.rng = make_rng(self.config.seed)
        self.cluster = Cluster(
            num_machines=self.config.num_machines,
            cost_model=CostModel(parallelism=self.config.num_machines),
        )
        self.dfs = DistributedFileSystem(
            cluster=self.cluster, rng=derive_rng(self.rng, "dfs")
        )
        self.catalog = Catalog()
        self.repartitioner = AdaptiveRepartitioner(
            window_size=self.config.window_size,
            rows_per_block=self.config.rows_per_block,
            join_level_fraction=self.config.join_level_fraction,
            join_levels_override=self.config.join_levels_override,
            enable_smooth=self.config.enable_smooth,
            enable_amoeba=self.config.enable_amoeba,
            rng=derive_rng(self.rng, "repartitioner"),
        )
        self.optimizer = Optimizer(
            catalog=self.catalog,
            cluster=self.cluster,
            config=self.config,
        )
        self.plan_cache = PlanCache()
        self.executor = Executor(
            catalog=self.catalog, cluster=self.cluster, config=self.config
        )
        # The worker pool starts lazily on the first parallel execute(), so
        # registering the backend costs nothing for sessions that never
        # select it.
        self.backends = {
            "tasks": TaskBackend(self.executor),
            "parallel": ParallelBackend(self.executor),
        }
        self.use_backend(self.config.execution_backend)
        if self.config.persistence == "mmap":
            if self._restore_manager is not None:
                # Session.open: adopt the pre-opened root and rebuild the
                # checkpointed partition state into the fresh wiring above
                # (restore() attaches the buffer/store hooks itself, last).
                self.persist = self._restore_manager
                self.persist.restore(self)
            else:
                root = self._resolve_storage_root()
                self.persist = PersistenceManager.create(
                    root, self.config.num_machines, self.config.buffer_bytes
                )
                self.persist.attach(self.dfs)
                if self.config.storage_root is None:
                    # Every block's loader holds the store, so the root
                    # outlives whatever can still fault from it.
                    self._remove_root = weakref.finalize(
                        self.persist.store, _remove_generated_root, root, os.getpid()
                    )

    def _resolve_storage_root(self) -> Path:
        """Pick the storage root of a fresh mmap session.

        An explicit ``config.storage_root`` is used verbatim (that is what
        makes it reopenable at a known location) and is never removed.
        Otherwise a unique directory is created under the system temp dir;
        unless :meth:`checkpoint` commits to it, it is removed when the
        session is garbage-collected (with every block it handed out) or the
        process exits — not by :meth:`close`, after which the session can
        still read.  A generated root is *not* written back to the config:
        configs are shareable between sessions (two sessions built from one
        config must not collide on a root), and :meth:`storage_root` exposes
        the resolved path.
        """
        if self.config.storage_root is not None:
            return Path(self.config.storage_root)
        return Path(tempfile.mkdtemp(prefix="repro-storage-"))

    # ------------------------------------------------------------------ #
    # Durability: checkpoint / reopen
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, storage_root: str | Path) -> "Session":
        """Reopen a checkpointed storage root as a new session.

        The session is rebuilt from the last committed checkpoint: tables
        come back at their exact partition-state epochs with their trees,
        block change stamps, samples, statistics and placement; RNG states
        and the adaptation window resume where :meth:`checkpoint` captured
        them.
        Blocks start *cold* — their columns fault in through the block
        buffer on first read.  The root's one checkpoint file is read and
        its checksums verified before anything is written under the root;
        spill files a crashed writer stranded after the last commit are
        garbage-collected here, and a leftover staging file is ignored.
        The reopened session selects the checkpointed config's backend;
        :meth:`use_backend` switches it.
        """
        manager = PersistenceManager.open(Path(storage_root))
        try:
            payload = manager.stored_config_payload()
            payload["storage_root"] = str(Path(storage_root))
            config = AdaptDBConfig(**payload)
            return cls(config=config, _restore_manager=manager)
        except BaseException:
            manager.close()
            raise

    def checkpoint(self) -> dict[str, int]:
        """Commit the session's full partition state to the storage root.

        Dirty blocks are spilled first; then one checksummed checkpoint
        file recording all metadata is renamed into place — the commit.  A
        crash before the rename leaves the previous checkpoint intact (the
        stranded spill files are collected on the next :meth:`open`).
        Returns ``{"blocks_spilled": ..., "versions_removed": ...}``.
        A generated root is kept from then on, so :meth:`open` can reopen it.

        Raises:
            StorageError: on a session without ``persistence="mmap"``.
        """
        if self.persist is None:
            raise StorageError(
                "checkpoint() requires a session with persistence='mmap'"
            )
        counters = self.persist.checkpoint(self)
        if self._remove_root is not None:
            self._remove_root.detach()
        return counters

    @property
    def storage_root(self) -> Path | None:
        """The durable tier's root directory (``None`` on memory sessions).

        This is the path :meth:`open` reopens — either the explicit
        ``config.storage_root`` or the unique directory a fresh mmap
        session generated.
        """
        return self.persist.root if self.persist is not None else None

    # ------------------------------------------------------------------ #
    # Backend selection
    # ------------------------------------------------------------------ #
    def use_backend(self, name: str) -> TaskBackend | ParallelBackend:
        """Select the execution backend by name and return it."""
        try:
            self.backend = self.backends[name]
        except KeyError:
            raise PlanningError(
                f"unknown execution backend {name!r}; "
                f"choose from {sorted(self.backends)}"
            ) from None
        return self.backend

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load_table(
        self,
        table: ColumnTable,
        partition_attributes: list[str] | None = None,
        tree: "PartitioningTree | None" = None,
    ) -> StoredTable:
        """Partition ``table`` and register it with the session.

        By default the Amoeba upfront partitioner builds the initial tree
        (no workload knowledge); callers that *do* know the workload (the
        PREF and hand-tuned baselines, or a user who "requests" a join tree,
        Section 5.1) may pass a pre-built ``tree`` instead.

        Args:
            table: The raw in-memory table.
            partition_attributes: Attributes the upfront partitioner may use;
                defaults to every column.  Ignored when ``tree`` is given.
            tree: Optional pre-built partitioning tree with unbound leaves.

        Returns:
            The registered :class:`StoredTable`.
        """
        if table.name in self.catalog:
            raise StorageError(f"table {table.name!r} already loaded")
        if tree is None:
            attributes = partition_attributes or table.schema.column_names
            partitioner = UpfrontPartitioner(
                attributes=attributes, rows_per_block=self.config.rows_per_block
            )
            sample = table.sample(
                DEFAULT_SAMPLE_SIZE, derive_rng(self.rng, f"sample:{table.name}")
            )
            tree = partitioner.build(sample, total_rows=table.num_rows)
        stored = StoredTable.load(
            table,
            self.dfs,
            tree,
            rows_per_block=self.config.rows_per_block,
            rng=derive_rng(self.rng, f"stored-sample:{table.name}"),
        )
        self.catalog.register(stored)
        return stored

    # ------------------------------------------------------------------ #
    # Stage 1: Query -> LogicalPlan
    # ------------------------------------------------------------------ #
    def table_epochs(self, query: Query) -> tuple[tuple[str, int], ...]:
        """Current ``(table, epoch)`` pairs for every table the query reads."""
        return tuple(
            (name, self.catalog.get(name).epoch)
            for name in sorted(set(query.tables))
            if name in self.catalog
        )

    def plan(self, query: Query, adapt: bool = True) -> LogicalPlan:
        """Adapt the layout (optionally) and produce an immutable logical plan.

        Adaptation always runs live — it mutates the partition state and its
        cost belongs to this query (the executor charges it as repartition
        work).  The *planning* after it is served from the epoch-keyed cache
        when this query's signature was planned before at exactly the
        current partition state; ``planning_seconds`` covers only this
        planning (and later lowering), not adaptation.
        """
        adaptation = RepartitionReport()
        if adapt:
            adaptation = self.repartitioner.on_query(self.catalog, query)

        started = time.perf_counter()
        signature = query_signature(query)
        epochs = self.table_epochs(query)
        key = (signature, epochs)

        entry = self.plan_cache.get(key)
        from_cache = entry is not None
        if entry is None:
            base = self.optimizer.plan_query(query)
            # The entry keeps its own container copies so a caller mutating a
            # served plan's lists cannot poison the cache (the JoinDecision
            # objects themselves are shared and documented read-only).
            entry = CachedPlan(
                scan_tables=list(base.scan_tables),
                scan_blocks={table: list(ids) for table, ids in base.scan_blocks.items()},
                join_decisions=list(base.join_decisions),
            )
            self.plan_cache.put(key, entry)
        logical = LogicalPlan(
            query=query,
            scan_tables=list(entry.scan_tables),
            scan_blocks={table: list(ids) for table, ids in entry.scan_blocks.items()},
            join_decisions=list(entry.join_decisions),
            adaptation=adaptation,
            signature=signature,
            table_epochs=epochs,
            from_cache=from_cache,
            cache_entry=entry,
        )
        logical.planning_seconds = time.perf_counter() - started
        return logical

    # ------------------------------------------------------------------ #
    # Stage 2: LogicalPlan -> PhysicalPlan
    # ------------------------------------------------------------------ #
    def lower(self, logical: LogicalPlan) -> PhysicalPlan:
        """Compile and schedule a logical plan.

        The compiled skeleton (tasks + schedule) is cached alongside the
        logical entry, but only for queries without adaptation work:
        repartition tasks belong to the query whose adaptation produced them
        and are compiled fresh whenever a report is non-empty.
        """
        started = time.perf_counter()
        entry = logical.cache_entry
        clean = logical.adaptation.blocks_repartitioned == 0
        if (entry is not None and entry.compiled is not None
                and entry.schedule is not None and clean):
            physical = PhysicalPlan(
                logical=logical,
                compiled=entry.compiled,
                schedule=entry.schedule,
                from_cache=True,
            )
        else:
            compiled = compile_plan(logical, self.catalog, self.cluster)
            schedule = Scheduler(self.cluster.num_machines).schedule(compiled.tasks)
            physical = PhysicalPlan(logical=logical, compiled=compiled, schedule=schedule)
            if entry is not None and clean:
                entry.compiled = compiled
                entry.schedule = schedule
        logical.planning_seconds += time.perf_counter() - started
        return physical

    # ------------------------------------------------------------------ #
    # Stage 3: PhysicalPlan -> QueryResult
    # ------------------------------------------------------------------ #
    def execute(self, physical: PhysicalPlan) -> QueryResult:
        """Run a physical plan through the selected backend.

        Read statistics (DFS locality counters) are reset at the start of
        every execution, so they always describe exactly one query.
        """
        self.dfs.reset_read_stats()
        result = self.backend.execute(physical)
        result.planning_seconds = physical.logical.planning_seconds
        result.plan_cache_hit = physical.logical.from_cache
        stats = self.dfs.read_stats
        result.buffer_hits = stats.buffer_hits
        result.buffer_faults = stats.buffer_faults
        result.buffer_evictions = stats.buffer_evictions
        return result

    # ------------------------------------------------------------------ #
    # Convenience: the full lifecycle
    # ------------------------------------------------------------------ #
    def run(self, query: Query, adapt: bool = True) -> QueryResult:
        """Plan, lower and execute ``query`` in one call."""
        return self.execute(self.lower(self.plan(query, adapt=adapt)))

    def run_workload(self, queries: list[Query], adapt: bool = True) -> list[QueryResult]:
        """Run a sequence of queries, adapting after each one."""
        return [self.run(query, adapt=adapt) for query in queries]

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release cross-process resources (worker pool, pinned segments)
        and the persistence tier's file mappings.

        Closing is idempotent and a closed session remains usable through
        the in-process backends (the parallel backend restarts its pool
        lazily if selected again); only :meth:`checkpoint` refuses a
        closed session.
        """
        self.backends["parallel"].close()
        if self.persist is not None:
            self.persist.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def table(self, name: str) -> StoredTable:
        """Return a registered table by name."""
        return self.catalog.get(name)

    def describe(self) -> str:
        """Multi-line summary of every table's partitioning state."""
        return "\n".join(table.describe() for table in self.catalog.tables())

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the plan cache and the hyper-plan cache."""
        hyper = self.optimizer.hyper_cache
        hyper_lookups = hyper.hits + hyper.misses
        return {
            "plan_lookups": self.plan_cache.lookups,
            "plan_hits": self.plan_cache.hits,
            "plan_misses": self.plan_cache.misses,
            "plan_hit_rate": round(self.plan_cache.hit_rate, 4),
            "plan_entries": len(self.plan_cache),
            "hyper_hits": hyper.hits,
            "hyper_misses": hyper.misses,
            "hyper_upgrades": hyper.upgrades,
            "hyper_hit_rate": (
                round(hyper.hits / hyper_lookups, 4) if hyper_lookups else 0.0
            ),
        }
