"""Low-level join kernels: the row work of one task, costing its bytes.

AdaptDB's evaluation reports I/O-driven runtimes, so the join executors only
need to (a) account block accesses faithfully and (b) compute the *correct*
number of join matches so tests can verify results against a reference join.

* :func:`gather_columns`: one ``np.concatenate`` per column over the batch,
  O(rows).  ``block.arrays(names)`` compacts the named columns on their first
  read after an append, so the copy is paid once, not on each of a block's
  many reads, and never for a column no task reads.
* :func:`join_match_count_arrays`: integer keys whose shared range spans at
  most :data:`DENSE_SPAN_FACTOR` slots per row are counted into a direct-address
  table the probe keys index, O(rows + span), no sort.  Under range
  partitioning that is the common case: a hyper-join group's build keys are a
  key *range*, a shuffle partition every ``num_partitions``-th key of one.
  Float and sparse keys sort (``_sorted_match_count``), O(n log n).
* :func:`split_by_partition`: one stable radix ``argsort`` of the narrowed
  assignment and one ``bincount``, O(rows) whatever the partition count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..common.errors import StorageError
from ..common.predicates import Predicate, rows_matching

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..storage.block import Block

#: Slots of counting table allowed per row joined: bounds the transient table
#: to this multiple of the int64 input bytes.  The sort path only wins beyond
#: 16 to 32 slots per row on every input size measured (EXPERIMENTS.md).
DENSE_SPAN_FACTOR = 16


def _sorted_match_count(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Join cardinality of two non-empty key arrays by sorting: Σ over the
    common keys of (build multiplicity × probe multiplicity)."""
    (build, build_counts), (probe, probe_counts) = (
        np.unique(keys, return_counts=True) for keys in (build_keys, probe_keys)
    )
    _, build_idx, probe_idx = np.intersect1d(
        build, probe, assume_unique=True, return_indices=True
    )
    return int((build_counts[build_idx] * probe_counts[probe_idx]).sum())


def join_match_count_arrays(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Join cardinality of two raw key arrays (the hash join of one task).

    Dense integer keys are counted over the range both sides share: one
    ``bincount`` of the build keys is the hash table, the probe keys index it.
    The span is a Python int, so the ends of int64 cannot overflow it.
    """
    sides = (build_keys, probe_keys)
    if len(build_keys) == 0 or len(probe_keys) == 0:
        return 0
    if all(np.issubdtype(k.dtype, np.integer) and np.can_cast(k.dtype, np.intp) for k in sides):
        low = max(int(keys.min()) for keys in sides)
        high = min(int(keys.max()) for keys in sides)
        span = high - low + 1
        if span <= 0:
            return 0
        if span <= DENSE_SPAN_FACTOR * (len(build_keys) + len(probe_keys)):
            build, probe = (
                np.subtract(k[(k >= low) & (k <= high)], low, dtype=np.intp) for k in sides
            )
            return int(np.bincount(build, minlength=span)[probe].sum())
    return _sorted_match_count(build_keys, probe_keys)


def gather_columns(blocks: Iterable["Block"], columns: list[str]) -> dict[str, np.ndarray]:
    """Concatenate the named columns of a batch of blocks row-wise.

    Empty blocks contribute no rows but still supply dtype metadata, so an
    empty batch keeps the source column dtype (a float predicate column must
    not silently become int64 just because no block held rows).  int64 is
    only the last-resort default when no block carries the column at all.
    """
    blocks = list(blocks)
    sources = [block.arrays(columns) for block in blocks if block.num_rows]
    if not sources:
        empties = [block.columns for block in reversed(blocks)]  # the first block wins
        dtypes = {name: e[name].dtype for e in empties for name in columns if name in e}
        return {name: np.empty(0, dtype=dtypes.get(name, np.int64)) for name in columns}
    try:
        return {name: np.concatenate([source[name] for source in sources]) for name in columns}
    except KeyError as error:
        raise StorageError(f"gathered blocks have no column {error.args[0]!r}") from None


def gather_filtered_keys(
    blocks: Iterable["Block"], key_column: str, predicates: list[Predicate]
) -> np.ndarray:
    """Join keys of a batch of blocks surviving ``predicates``, in one pass.

    Instead of filtering block by block, the key column and every predicate
    column are concatenated across the batch and the predicate masks are
    evaluated once over the concatenation — the vectorized inner loop of the
    scan and shuffle-map tasks.
    """
    needed = [key_column] + sorted({p.column for p in predicates} - {key_column})
    columns = gather_columns(blocks, needed)
    keys = columns[key_column]
    if not predicates or len(keys) == 0:
        return keys
    return keys[rows_matching(columns, predicates)]


def batch_matching_count(blocks: Iterable["Block"], predicates: list[Predicate]) -> int:
    """Rows of a batch of blocks matching all ``predicates`` (vectorized).

    With no predicates this is simply the batch's total row count; otherwise
    the predicate columns are concatenated across the batch and every
    predicate mask is evaluated once.
    """
    blocks = list(blocks)
    if not predicates:
        return sum(block.num_rows for block in blocks)
    columns = gather_columns(blocks, sorted({p.column for p in predicates}))
    return int(rows_matching(columns, predicates).sum())


def hash_partition(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each key to a shuffle partition (simple modulo hashing)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    # np.mod takes the sign of the (positive) divisor: already non-negative.
    if keys.dtype.kind == "f":
        # Reduced in float64, whose remainder of a truncated key is exact, so
        # a key within int64 goes where its int64 value would; NaN and ±inf
        # (which have none) go to partition 0.  Equal keys still meet.
        finite = np.where(np.isfinite(keys), np.trunc(keys), 0.0)
        return np.mod(finite, num_partitions).astype(np.int64)
    return np.mod(keys.astype(np.int64, copy=False), num_partitions)


def split_by_partition(keys: np.ndarray, num_partitions: int) -> list[np.ndarray]:
    """Split ``keys`` into one array per shuffle partition, in one pass.

    The assignment is narrowed to the smallest unsigned dtype that holds it
    (numpy radix-sorts up to 16 bits); the sort is stable, so each partition
    is exactly ``keys[assignment == p]``, or an empty int64 array.
    """
    assignment = hash_partition(keys, num_partitions)
    narrow = assignment.astype(np.min_scalar_type(num_partitions - 1), copy=False)
    routed = keys[np.argsort(narrow, kind="stable")]
    ends = np.cumsum(np.bincount(assignment, minlength=num_partitions)).tolist()
    return [
        routed[start:end] if end > start else np.empty(0, dtype=np.int64)
        for start, end in zip([0, *ends], ends)
    ]
