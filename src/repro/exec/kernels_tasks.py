"""Per-task work descriptions, kernels and outcome merging.

The schedule interpreter (:class:`~repro.exec.engine.Executor`) turns every
placed task into one :class:`TaskWork` — ids, column names, predicates and
flat arrays only — and hands it to a runner.  Whichever runner executes it
(the parent; or a ``repro.parallel`` worker process), the work goes
through the one :func:`run_task` below:

* the ``run_*`` kernels do the row work of one task.  They take only block
  *readers* (anything exposing ``num_rows`` and ``columns`` — a live
  :class:`~repro.storage.block.Block` in the parent, whose ``columns``
  compacts pending chunks on the first read; a shared-memory
  :class:`~repro.storage.shared_memory.SharedBlockView` in a worker), plain
  predicates, column names and integers.  Nothing here captures a
  ``Catalog``, ``Cluster`` or ``DistributedFileSystem``: :func:`run_task`
  resolves block ids through the ``fetch`` callable its runner supplies;
* :func:`apply_outcome` merges a :class:`TaskOutcome` into the shared
  per-query accumulators (:class:`~repro.exec.engine.JoinState` /
  :class:`~repro.exec.result.QueryResult`).  The interpreter applies
  outcomes in task-id order whichever runner produced them, which is what
  keeps every backend's results and fingerprints bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..common.predicates import Predicate
from ..join.kernels import (
    batch_matching_count,
    gather_filtered_keys,
    join_match_count_arrays,
    split_by_partition,
)
from .tasks import Task, TaskKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..storage.shared_memory import TablePin
    from .engine import JoinState
    from .result import QueryResult


# --------------------------------------------------------------------- #
# Work descriptions (picklable; ids + pins + flat data only)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BlockInput:
    """One batch of blocks a task reads, with the row filter applied to it.

    ``pin`` is ``None`` on the descriptions the interpreter builds; the pool
    runner attaches the shared-memory slots of exactly ``block_ids`` before
    shipping the work to a worker.
    """

    table: str
    block_ids: tuple[int, ...]
    predicates: tuple[Predicate, ...]
    key_column: str | None = None
    pin: "TablePin | None" = None

    @property
    def columns_read(self) -> dict[str, None]:
        """The columns :func:`run_task` reads of these blocks, in order: the
        join key, then the predicates' (a scan with no predicates reads none)."""
        names = dict.fromkeys(predicate.column for predicate in self.predicates)
        return {self.key_column: None, **names} if self.key_column else names


@dataclass(frozen=True)
class TaskWork:
    """Everything one placed task needs to run, in either process.

    ``inputs`` holds one :class:`BlockInput` for scans and shuffle maps,
    build then probe for hyper groups, and none for shuffle reduces — those
    carry the merged per-partition ``build_keys`` / ``probe_keys`` instead.
    """

    task_id: int
    kind: TaskKind
    machine_id: int
    inputs: tuple[BlockInput, ...] = ()
    num_partitions: int = 0
    build_keys: np.ndarray | None = None
    probe_keys: np.ndarray | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """What running one :class:`TaskWork` produced."""

    task_id: int
    rows: int
    #: Shuffle-map only: one key array per target partition.
    parts: tuple[np.ndarray, ...] | None = None
    #: Measured by the parallel backend, in a worker or the parent
    #: (reporting only); zero when run by the inline runner.
    wall_seconds: float = 0.0


# --------------------------------------------------------------------- #
# Run functions (pure row work; shared by parent and worker processes)
# --------------------------------------------------------------------- #
def run_scan_task(blocks: Sequence, predicates: list[Predicate]) -> int:
    """Rows of a scan task's block batch matching all ``predicates``."""
    return batch_matching_count(blocks, predicates)


def run_shuffle_map_task(
    blocks: Sequence,
    key_column: str,
    predicates: list[Predicate],
    num_partitions: int,
) -> list[np.ndarray]:
    """Filter and hash-partition one map task's join keys.

    Returns one key array per shuffle partition (empty arrays for
    partitions that received no keys), so the caller can merge outcomes
    without re-deriving the partitioning.
    """
    keys = gather_filtered_keys(blocks, key_column, predicates)
    return split_by_partition(keys, num_partitions)


def run_shuffle_reduce_task(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Join cardinality of one shuffle partition's build and probe keys."""
    return join_match_count_arrays(build_keys, probe_keys)


def run_hyper_group_task(
    build_blocks: Sequence,
    probe_blocks: Sequence,
    build_column: str,
    probe_column: str,
    build_predicates: list[Predicate],
    probe_predicates: list[Predicate],
) -> int:
    """One hyper-join group: build a hash table, probe the overlapping blocks."""
    return join_match_count_arrays(
        gather_filtered_keys(build_blocks, build_column, build_predicates),
        gather_filtered_keys(probe_blocks, probe_column, probe_predicates),
    )


def run_task(
    work: TaskWork, fetch: Callable[[BlockInput], Sequence]
) -> TaskOutcome:
    """Run one task; ``fetch`` resolves a block input to its block readers."""
    if work.kind is TaskKind.SHUFFLE_REDUCE:
        return TaskOutcome(
            work.task_id, run_shuffle_reduce_task(work.build_keys, work.probe_keys)
        )
    first = work.inputs[0]
    if work.kind is TaskKind.SCAN:
        return TaskOutcome(
            work.task_id, run_scan_task(fetch(first), list(first.predicates))
        )
    if work.kind is TaskKind.SHUFFLE_MAP:
        parts = run_shuffle_map_task(
            fetch(first), first.key_column, list(first.predicates), work.num_partitions
        )
        return TaskOutcome(work.task_id, 0, parts=tuple(parts))
    # Hyper-join group: build one hash table, probe the overlapping blocks.
    build, probe = work.inputs
    rows = run_hyper_group_task(
        fetch(build),
        fetch(probe),
        build.key_column,
        probe.key_column,
        list(build.predicates),
        list(probe.predicates),
    )
    return TaskOutcome(work.task_id, rows)


# --------------------------------------------------------------------- #
# Apply functions (deterministic merge into the shared accumulators)
# --------------------------------------------------------------------- #
def apply_outcome(
    result: "QueryResult", states: "list[JoinState]", task: Task, outcome: TaskOutcome
) -> None:
    """Merge one task's outcome into the query result / its join's state."""
    if task.kind is TaskKind.SCAN:
        result.scan_output_rows += outcome.rows
        result.blocks_read += len(task.block_ids)
        return
    state = states[task.join_index]
    if task.kind is TaskKind.SHUFFLE_MAP:
        build = task.side == "build"
        partitions = state.build_partitions if build else state.probe_partitions
        for partition, keys in enumerate(outcome.parts):
            if len(keys):
                partitions[partition].append(keys)
        if build:
            state.build_blocks_read += len(task.block_ids)
        else:
            state.probe_blocks_read += len(task.block_ids)
    elif task.kind is TaskKind.SHUFFLE_REDUCE:
        state.output_rows += outcome.rows
    else:
        state.output_rows += outcome.rows
        state.build_blocks_read += len(task.block_ids)
        state.probe_blocks_read += len(task.probe_block_ids)
