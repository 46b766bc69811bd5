"""The multi-core execution backend (``execution_backend="parallel"``).

:class:`ParallelBackend` replays already-compiled :class:`TaskSchedule`\\ s
on a persistent :class:`~repro.parallel.pool.WorkerPool` — one worker per
simulated machine (folded modulo ``num_workers``).  Block columns reach the
workers through one shared-memory slab per table, kept current by a
:class:`~repro.storage.shared_memory.SharedBlockStore`: before a stage is
dispatched, the columns it reads of the blocks it reads are copied in if the
slab lacks them or a repartition touched the block since, and each work
item carries the slots of its own blocks and columns only.

Determinism contract: execution goes through the session's one schedule
interpreter (:class:`~repro.exec.engine.Executor`) with this backend's
pool runner (``ParallelBackend._run_stage``).  The interpreter describes
each stage's tasks, this runner pins their tables, ships the descriptions
to the pool and returns the collected outcomes, and the interpreter merges
them **in task-id order** — exactly as it does for the inline runner — so
``QueryResult.fingerprint()`` is bit-identical to
:class:`~repro.api.backends.TaskBackend`.  The only parallel-specific
fields are the wall-clock measurements (``wall_seconds`` /
``machine_wall_seconds``), which fingerprints exclude.

Stages follow the schedule's shuffle barrier: stage 0 (scans, shuffle maps,
hyper groups) fans out first; only after its map outcomes are merged into
the join states does the interpreter describe the stage 1 reduces —
carrying the concatenated per-partition key arrays — for the next fan-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..exec.engine import Executor
from ..exec.kernels_tasks import TaskOutcome, TaskWork
from ..exec.result import QueryResult
from ..storage.shared_memory import SharedBlockStore
from .pool import WorkerPool


@dataclass
class ParallelBackend:
    """True multi-core execution (backend ``"parallel"``)."""

    executor: Executor
    store: SharedBlockStore = field(init=False, default_factory=SharedBlockStore)
    _pool: WorkerPool | None = field(init=False, default=None)

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Pool size: ``config.num_workers`` or one worker per machine."""
        return self.executor.config.num_workers or self.executor.cluster.num_machines

    def ensure_pool(self) -> WorkerPool:
        """Start (or restart after a crash/close) the worker pool lazily."""
        if self._pool is not None and not self._pool.alive:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(self.num_workers)
        return self._pool

    @property
    def pool(self) -> WorkerPool | None:
        """The current pool, if one has been started."""
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool and unlink every pinned segment."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.store.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, physical) -> QueryResult:
        """Interpret a physical plan's schedule with the pool as the runner."""
        pool = self.ensure_pool()
        machine_wall = [0.0] * physical.schedule.num_machines
        started = time.perf_counter()
        try:
            result = self.executor.execute_schedule(
                physical.logical,
                physical.compiled,
                physical.schedule,
                runner=lambda works: self._run_stage(pool, works, machine_wall),
            )
        except BaseException:
            # A failed stage leaves its other outcomes in the pool's result
            # queue, where the next query would collect them as its own.
            # Drop the pool; ensure_pool() starts a fresh one (pins stay:
            # the store is parent-owned).
            pool.close()
            self._pool = None
            raise
        result.wall_seconds = time.perf_counter() - started
        result.machine_wall_seconds = machine_wall
        return result

    def _run_stage(
        self, pool: WorkerPool, works: Iterable[TaskWork], machine_wall: list[float]
    ) -> list[TaskOutcome]:
        """The pool runner: fan one stage's work out and collect its outcomes.

        Each outcome's measured ``wall_seconds`` is added to its machine's
        slot of ``machine_wall`` (reporting only).
        """
        works = list(works)
        # One pin per table per stage, made before anything is submitted: the
        # store writes into a segment only while no worker is reading it.  It
        # lists each block once (probe blocks are re-read) and the columns
        # any input of the stage reads.
        read: dict[str, tuple[dict[int, None], dict[str, None]]] = {}
        for work in works:
            for blocks in work.inputs:
                block_ids, names = read.setdefault(blocks.table, ({}, {}))
                block_ids.update(dict.fromkeys(blocks.block_ids))
                names.update(blocks.columns_read)
        catalog = self.executor.catalog
        pins = {
            name: self.store.pin_table(catalog.get(name), block_ids, names)
            for name, (block_ids, names) in read.items()
        }
        for work in works:
            inputs = []
            for blocks in work.inputs:
                # Charge the reads where the inline runner would, so locality
                # and buffer statistics match TaskBackend's (block data itself
                # travels via shared memory, not through this call).
                self.executor.fetch(work, blocks)
                pin = pins[blocks.table].select(blocks.block_ids, blocks.columns_read)
                inputs.append(replace(blocks, pin=pin))
            pool.submit(work.machine_id, replace(work, inputs=tuple(inputs)))
        machine_of = {work.task_id: work.machine_id for work in works}
        outcomes = pool.collect(len(works))
        for outcome in outcomes:
            machine_wall[machine_of[outcome.task_id]] += outcome.wall_seconds
        return outcomes
