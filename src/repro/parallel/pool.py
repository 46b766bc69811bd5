"""Persistent worker pool for the multi-core execution backend.

One worker process per simulated machine (folded modulo ``num_workers``
when the pool is smaller than the cluster).  Workers receive the schedule
interpreter's picklable :class:`~repro.exec.kernels_tasks.TaskWork`
descriptions — task ids, block ids, predicates and, per input, a
:class:`~repro.storage.shared_memory.TablePin` listing the shared-memory
slots of those blocks only — never live ``Block``/``StoredTable`` objects:
block columns travel through the pinned shared-memory segments, and only
shuffle keys and row counts come back.  Each worker runs the work through
the same :func:`~repro.exec.kernels_tasks.run_task` the parent runs inline,
so the interpreter merges outcomes identically and stays bit-identical.

Timing: workers stamp each task with its ``time.perf_counter()`` duration.
The measured times are reported on ``QueryResult.wall_seconds`` /
``machine_wall_seconds`` and feed no decision and no fingerprint.
``tests/test_determinism.py`` holds that: it runs the golden streams with
every ``repro`` module on an adversarial clock, and the decisions must not
change.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from dataclasses import replace
from multiprocessing.connection import wait
from typing import Any

from ..common.errors import ExecutionError
from ..exec.kernels_tasks import TaskOutcome, TaskWork, run_task
from ..storage.shared_memory import SharedSegmentCache


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #
def _run_work(work: TaskWork, cache: SharedSegmentCache) -> TaskOutcome:
    """Run one task against the attached segments and stamp its duration."""
    started = time.perf_counter()
    outcome = run_task(
        work, lambda blocks: cache.get_blocks(blocks.pin, blocks.block_ids)
    )
    return replace(outcome, wall_seconds=time.perf_counter() - started)


def _worker_main(worker_index: int, tasks: Any, results: Any) -> None:
    """Worker loop: run task work until the ``None`` sentinel arrives."""
    cache = SharedSegmentCache()
    try:
        while True:
            work = tasks.get()
            if work is None:
                return
            try:
                outcome = _run_work(work, cache)
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                results.send(
                    ("error", worker_index, work.task_id,
                     f"{exc!r}\n{traceback.format_exc()}")
                )
            else:
                results.send(("ok", worker_index, outcome))
    finally:
        cache.close()


# --------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------- #
class WorkerPool:
    """A persistent pool of task-executing worker processes.

    One task queue per worker (the backend maps machine ids onto workers,
    so placement survives the process boundary) and one result pipe per
    worker, which the worker alone writes, so :meth:`collect` can wait on the
    pipes and the processes' sentinels together.  Workers are daemons: even
    an abandoned pool cannot outlive the parent process.
    """

    def __init__(self, num_workers: int, start_method: str | None = None) -> None:
        if num_workers < 1:
            raise ExecutionError("WorkerPool needs at least one worker")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self.num_workers = num_workers
        self.start_method = start_method
        ctx = multiprocessing.get_context(start_method)
        self._task_queues: list[Any] = [ctx.Queue() for _ in range(num_workers)]
        self._results: list[Any] = []
        self._workers = []
        for index in range(num_workers):
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(index, self._task_queues[index], writer),
                daemon=True,
                name=f"repro-parallel-{index}",
            )
            process.start()
            writer.close()  # the worker holds the only write end now
            self._results.append(reader)
            self._workers.append(process)
        self._closed = False

    # -------------------------------------------------------------- #
    # Dispatch / collect
    # -------------------------------------------------------------- #
    def submit(self, worker_index: int, work: TaskWork) -> None:
        """Enqueue ``work`` on one worker's task queue."""
        if self._closed:
            raise ExecutionError("WorkerPool is closed")
        self._task_queues[worker_index % self.num_workers].put(work)

    def collect(self, count: int, timeout: float = 60.0) -> list[TaskOutcome]:
        """Gather ``count`` outcomes, raising if a worker dies or errors.

        ``timeout`` bounds the wait for each outcome.  The wait is on the
        result pipes and the workers' sentinels together, so a crashed
        worker (e.g. killed by a signal, so it cannot report) is reported
        at once — after whatever it managed to send has been read.  After a
        raise the stage's other outcomes may still be in the pipes, so the
        caller must not reuse the pool (``ParallelBackend`` drops it).
        """
        outcomes: list[TaskOutcome] = []
        sentinels = [worker.sentinel for worker in self._workers]
        while len(outcomes) < count:
            ready = wait([*self._results, *sentinels], timeout)
            if not ready:
                raise ExecutionError(
                    f"timed out collecting task outcomes ({len(outcomes)}/{count})"
                )
            items = []
            for reader in ready:
                if reader not in sentinels:
                    try:
                        items.append(reader.recv())
                    except EOFError:  # a dead worker's pipe reads as closed
                        pass
            if not items:  # only sentinels and closed pipes were ready
                dead = [
                    worker.name
                    for worker, reader in zip(self._workers, self._results)
                    if worker.sentinel in ready or reader in ready
                ]
                raise ExecutionError(f"worker process(es) died during execution: {dead}")
            for item in items:
                if item[0] == "error":
                    _, worker_index, task_id, detail = item
                    raise ExecutionError(
                        f"task {task_id} failed on worker {worker_index}: {detail}"
                    )
                outcomes.append(item[2])
        return outcomes

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        """Whether every worker process is still running."""
        return not self._closed and all(w.is_alive() for w in self._workers)

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the pool down: sentinel every worker, then join/terminate.

        During interpreter finalization (a pool dropped without ``close()``
        reaches here via ``__del__`` at exit) queue operations are skipped
        entirely: a sentinel ``put`` on a queue whose feeder thread never
        started would call ``Thread.start()``, which deadlocks once the
        interpreter stops admitting new threads.  The workers are daemons,
        so terminating them directly is safe and sufficient.
        """
        if self._closed:
            return
        self._closed = True
        finalizing = sys.is_finalizing()
        if not finalizing:
            for task_queue in self._task_queues:
                try:
                    task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover - torn down
                    pass
        for worker in self._workers:
            if finalizing:
                worker.terminate()
            worker.join(timeout=join_timeout)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)
        for reader in self._results:
            reader.close()
        if not finalizing:
            for task_queue in self._task_queues:
                task_queue.close()
                task_queue.join_thread()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(join_timeout=0.5)
        except Exception:
            pass
