"""The multi-core execution backend (``execution_backend="parallel"``).

:class:`ParallelBackend` replays already-compiled :class:`TaskSchedule`\\ s
with the session's own process and a persistent
:class:`~repro.parallel.pool.WorkerPool` of ``num_workers`` helper processes
as the executors.  In every stage the parent runs the *heaviest* machine —
the one whose tasks read the most blocks (in a reduce stage, the most
keys), ties to the lowest machine id, so the split depends on the schedule
alone — in-process, through the same :meth:`Executor.run_here
<repro.exec.engine.Executor.run_here>` the inline runner uses; the other
machines' tasks go to the helpers, folded modulo ``num_workers``.  A stage
whose tasks all sit on one machine therefore pins nothing, ships nothing and
never waits.  Block columns reach the helpers through one shared-memory slab
per table, kept current by a
:class:`~repro.storage.shared_memory.SharedBlockStore`: before a stage's
helper work is submitted, the columns it reads of the blocks it reads are
copied in if the slab lacks them or a repartition touched the block since,
and each work item carries the slots of its own blocks and columns only.

Determinism contract: execution goes through the session's one schedule
interpreter (:class:`~repro.exec.engine.Executor`) with this backend's
runner (``ParallelBackend._run_stage``).  The interpreter describes each
stage's tasks, this runner runs one machine's share and ships the rest, and
the interpreter merges all outcomes **in task-id order** — exactly as it
does for the inline runner — so ``QueryResult.fingerprint()`` is
bit-identical to :class:`~repro.api.backends.TaskBackend`.  The only
parallel-specific fields are the wall-clock measurements (``wall_seconds``
/ ``machine_wall_seconds``, the parent's tasks included), which
fingerprints exclude.

A helper that dies mid-stage costs the query one pool restart: the stage's
uncollected works run again on fresh helpers (never in the parent, so a
crashing kernel cannot take the session down).  A second death, or a task
that raised, fails the query.

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
from .pool import WorkerDied, WorkerPool


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
        """Helper processes: ``config.num_workers`` or one per machine."""
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
        """Interpret a physical plan's schedule with the parent and the pool
        as the runner."""
        started_pool = self.ensure_pool()
        machine_wall = [0.0] * physical.schedule.num_machines
        started = time.perf_counter()
        try:
            result = self.executor.execute_schedule(
                physical.logical,
                physical.compiled,
                physical.schedule,
                runner=lambda works: self._run_stage(started_pool, works, machine_wall),
            )
        except BaseException:
            # A failed stage leaves its other outcomes in the pool's result
            # queue, where the next query would collect them as its own.
            # Drop the pool; ensure_pool() starts a fresh one (pins stay:
            # the store is parent-owned).
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            raise
        result.wall_seconds = time.perf_counter() - started
        result.machine_wall_seconds = machine_wall
        return result

    def _run_stage(
        self, started_pool: WorkerPool, works: Iterable[TaskWork], machine_wall: list[float]
    ) -> list[TaskOutcome]:
        """The runner: the parent runs the stage's heaviest machine, the pool
        the others.

        The other machines' work is pinned and submitted first; the parent
        then runs its own work in-process and collects the helpers'
        outcomes last.  Each outcome's measured ``wall_seconds`` is added to
        its machine's slot of ``machine_wall`` (reporting only).
        """
        works = list(works)
        if not works:
            return []
        own = heaviest_machine(works)
        shipped = self._ship([work for work in works if work.machine_id != own])
        outcomes = [self._run_here(work) for work in works if work.machine_id == own]
        if shipped:
            outcomes += self._collect(started_pool, shipped)
        machine_of = {work.task_id: work.machine_id for work in works}
        for outcome in outcomes:
            machine_wall[machine_of[outcome.task_id]] += outcome.wall_seconds
        return outcomes

    def _ship(self, works: list[TaskWork]) -> list[TaskWork]:
        """Pin ``works``' blocks, submit each work with its pins and return
        what was submitted."""
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
        catalog, pool = self.executor.catalog, self._pool
        assert pool is not None, "execute() starts the pool"
        pins = {
            name: self.store.pin_table(catalog.get(name), block_ids, names)
            for name, (block_ids, names) in read.items()
        }
        shipped = []
        for work in works:
            inputs = []
            for blocks in work.inputs:
                # Charge the reads where the inline runner would, so locality
                # statistics match TaskBackend's (block data itself travels
                # via shared memory, not through this call).
                self.executor.fetch(work, blocks)
                pin = pins[blocks.table].select(blocks.block_ids, blocks.columns_read)
                inputs.append(replace(blocks, pin=pin))
            shipped.append(replace(work, inputs=tuple(inputs)))
            pool.submit(work.machine_id, shipped[-1])
        return shipped

    def _run_here(self, work: TaskWork) -> TaskOutcome:
        """Run one task in the parent, as the inline runner does, and stamp
        its duration."""
        started = time.perf_counter()
        outcome = self.executor.run_here(work)
        return replace(outcome, wall_seconds=time.perf_counter() - started)

    def _collect(self, started_pool: WorkerPool, shipped: list[TaskWork]) -> list[TaskOutcome]:
        """The helpers' outcomes of ``shipped``.

        A worker that dies costs the query one pool restart: the works
        whose outcomes had not arrived run again on fresh workers — never
        in the parent, so a crashing kernel cannot take the session down.
        A second death in the query, or a task that raised, fails it.
        """
        pool = self._pool
        assert pool is not None, "execute() starts the pool"
        try:
            return pool.collect(len(shipped))
        except WorkerDied as death:
            if pool is not started_pool:
                raise
            pool.close()
            done = {outcome.task_id for outcome in death.outcomes}
            left = [work for work in shipped if work.task_id not in done]
            pool = self.ensure_pool()
            for work in left:
                pool.submit(work.machine_id, work)
            return death.outcomes + pool.collect(len(left))


def heaviest_machine(works: Iterable[TaskWork]) -> int:
    """The machine whose works read the most blocks (or, in a reduce stage,
    the most keys); ties go to the lowest machine id.

    Depends only on the schedule, never on a clock, so which process runs
    which task is the same on every run.
    """
    load: dict[int, int] = {}
    for work in works:
        keys = sum(len(k) for k in (work.build_keys, work.probe_keys) if k is not None)
        blocks = sum(len(blocks.block_ids) for blocks in work.inputs)
        load[work.machine_id] = load.get(work.machine_id, 0) + keys + blocks
    return min(load, key=lambda machine_id: (-load[machine_id], machine_id))
