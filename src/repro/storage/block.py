"""Data blocks.

A block is the unit of storage, placement, pruning and join scheduling —
the equivalent of a 64 MB HDFS block in the paper.  Blocks store real rows
(one numpy array per column) so joins can be executed and verified, and they
carry per-column min/max metadata, which is what the hyper-join overlap
computation and the partitioning-tree lookup consume.

Storage is *chunked*: appends (the smooth-repartitioning write path) push the
incoming column arrays onto a chunk list and only update the per-column
min/max ranges and row/byte counters incrementally — O(appended rows)
instead of O(block rows) — an LSM-style write path with deferred compaction.
Who compacts: the first columnar read after an append (``columns``: a task's
gather, a spill, a shared-memory pin), in place and once — a block is read
hundreds of times between appends.  Who deliberately does not: block
migration streams ``column_parts()`` of its sources, which are about to be
cleared; compacting them first would copy every row twice.

Under the persistence tier a block can additionally be **unloaded**: its
consolidated columns are dropped (``_columns is None``) and fault back in
through a bound loader on the next columnar read.  Metadata — ranges,
``size_bytes``, ``num_rows`` — always stays resident, so planning peeks and
pruning never touch disk.  Appends to an unloaded block land on the chunk
list without faulting; the on-disk prefix is only read when something
actually consumes the rows.  ``dirty`` tracks whether the in-memory state
has diverged from the newest spill — only clean blocks may drop their
columns, dirty ones are written back first.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..common.errors import StorageError
from ..common.schema import Schema


def _estimate_bytes(columns: dict[str, np.ndarray]) -> int:
    """Approximate the on-disk size of a set of column arrays."""
    return int(sum(array.nbytes for array in columns.values()))


def _chunk_rows(columns: dict[str, np.ndarray], block_id: int) -> int:
    """Validate that all arrays share one length and return it."""
    lengths = {len(array) for array in columns.values()}
    if len(lengths) > 1:
        raise StorageError(f"block {block_id}: column lengths differ ({lengths})")
    return lengths.pop() if lengths else 0


class Block:
    """A horizontal slice of a table.

    Attributes:
        block_id: Globally unique identifier assigned by the DFS.
        table: Name of the table the block belongs to.
        ranges: Column name -> (min, max) over the rows in the block,
            maintained incrementally across appends.
        size_bytes: Approximate size of the block, also incremental.
    """

    __slots__ = (
        "block_id", "table", "ranges", "size_bytes",
        "_columns", "_chunks", "_num_rows", "_loader", "dirty",
    )

    def __init__(
        self,
        block_id: int,
        table: str,
        columns: dict[str, np.ndarray],
        ranges: dict[str, tuple[float, float]] | None = None,
        size_bytes: int = 0,
    ) -> None:
        self.block_id = block_id
        self.table = table
        self._columns: dict[str, np.ndarray] | None = dict(columns)
        self._chunks: list[dict[str, np.ndarray]] = []
        self._num_rows = _chunk_rows(self._columns, block_id)
        self.ranges = ranges if ranges else compute_ranges(self._columns)
        self.size_bytes = size_bytes if size_bytes else _estimate_bytes(self._columns)
        #: Faults the newest spilled version back in; bound by the buffer.
        self._loader: Callable[[], dict[str, np.ndarray]] | None = None
        #: Whether in-memory state has diverged from the newest spill.
        self.dirty = True

    @classmethod
    def restore(
        cls,
        block_id: int,
        table: str,
        ranges: dict[str, tuple[float, float]],
        size_bytes: int,
        num_rows: int,
    ) -> "Block":
        """Rebuild a *cold* block from checkpointed metadata.

        The block starts unloaded and clean; its columns fault in through
        the loader the restore path binds right after construction.
        """
        block = cls(
            block_id=block_id,
            table=table,
            columns={},
            ranges=dict(ranges),
            size_bytes=size_bytes,
        )
        block._columns = None
        block._num_rows = num_rows
        block.dirty = False
        return block

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of rows stored in the block (O(1), tracked incrementally)."""
        return self._num_rows

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Column name -> contiguous value array.

        Faults an unloaded block's columns back in through the bound loader,
        then consolidates pending chunks.
        """
        if self._columns is None:
            self._fault()
        if self._chunks:
            self.consolidate()
        assert self._columns is not None
        return self._columns

    @property
    def num_pending_chunks(self) -> int:
        """How many appended chunks await consolidation (0 when contiguous)."""
        return len(self._chunks)

    @property
    def is_resident(self) -> bool:
        """Whether the consolidated columns are currently in memory."""
        return self._columns is not None

    @property
    def column_names(self) -> list[str]:
        """Names of the stored columns (faults if unloaded)."""
        return list(self.columns)

    def range_of(self, column: str) -> tuple[float, float]:
        """Return the (min, max) of ``column`` over the block's rows.

        Raises:
            StorageError: if the column is absent or the block is empty.
        """
        if column not in self.ranges:
            raise StorageError(f"block {self.block_id} has no range metadata for column {column!r}")
        return self.ranges[column]

    # ------------------------------------------------------------------ #
    # Mutation (append path)
    # ------------------------------------------------------------------ #
    def append_rows(
        self,
        rows: dict[str, np.ndarray],
        chunk_ranges: dict[str, tuple[float, float]] | None = None,
    ) -> int:
        """Append ``rows`` as a chunk, updating metadata incrementally.

        Ranges merge via min/max against the incoming chunk only, the row and
        byte counters accumulate, and no data is copied until the next
        columnar read.

        Args:
            rows: Column name -> value array (all equal length).
            chunk_ranges: Optional precomputed per-column (min, max) of the
                chunk — the block-migration path derives them for every
                target leaf with one ``reduceat`` per column, which is much
                cheaper than one reduction per leaf here.

        Returns:
            The number of rows appended.
        """
        if chunk_ranges is None:
            added = _chunk_rows(rows, self.block_id)
            if added == 0:
                return 0
            # Validate against the *effective* column set — the consolidated
            # dict when present (even with zero rows, it is the schema), the
            # first chunk for an initially column-less block — so validation
            # always agrees with what consolidate() will produce.
            stored = self._columns if self._columns else (
                self._chunks[0] if self._chunks else None
            )
            if stored is not None and rows.keys() != stored.keys():
                raise StorageError(
                    f"block {self.block_id}: appended columns {sorted(rows)} do not match "
                    f"stored columns {sorted(stored)}"
                )
            rows = dict(rows)
        else:
            # Trusted internal path (block migration): the caller built the
            # chunk from equal-length slices and owns the dict.
            added = len(next(iter(rows.values()))) if rows else 0
            if added == 0:
                return 0
        self._chunks.append(rows)
        self.dirty = True
        self._num_rows += added
        self.size_bytes += _estimate_bytes(rows)
        ranges = self.ranges
        for name, array in rows.items():
            if chunk_ranges is not None:
                lo, hi = chunk_ranges[name]
            else:
                lo, hi = float(array.min()), float(array.max())
            existing = ranges.get(name)
            if existing is not None:
                lo, hi = min(existing[0], lo), max(existing[1], hi)
            ranges[name] = (lo, hi)
        return added

    def replace_columns(self, columns: dict[str, np.ndarray]) -> None:
        """Replace the block's contents and recompute ranges and size exactly.

        This is the only wholesale-rewrite entry point: contents, ranges and
        ``size_bytes`` always change together, so stale range metadata can
        never silently prune a block with live rows.
        """
        self._columns = dict(columns)
        self._chunks = []
        self._num_rows = _chunk_rows(self._columns, self.block_id)
        self.ranges = compute_ranges(self._columns)
        self.size_bytes = _estimate_bytes(self._columns)
        self.dirty = True

    def clear(self, empty_columns: dict[str, np.ndarray]) -> None:
        """Empty the block in place (its rows have been migrated elsewhere)."""
        self._columns = dict(empty_columns)
        self._chunks = []
        self._num_rows = 0
        self.ranges = {}
        self.size_bytes = 0
        self.dirty = True

    def consolidate(self) -> None:
        """Merge pending chunks into contiguous per-column arrays.

        Row order is preserved: the original contents first, then every chunk
        in append order.  ``size_bytes`` is re-derived from the consolidated
        arrays so dtype promotions cannot leave it stale.  An unloaded block
        faults its on-disk prefix in first — it comes before the chunks.
        """
        if not self._chunks:
            return
        if self._columns is None:
            self._fault()
        chunks, self._chunks = self._chunks, []
        if self._columns and len(next(iter(self._columns.values()))):
            names = list(self._columns)
            parts: list[dict[str, np.ndarray]] = [self._columns, *chunks]
        else:
            names = list(chunks[0])
            parts = chunks
        self._columns = {
            name: np.concatenate([part[name] for part in parts]) for name in names
        }
        self.size_bytes = _estimate_bytes(self._columns)

    def column_parts(self) -> list[dict[str, np.ndarray]]:
        """The block's raw storage parts, in row order, without consolidating.

        Returns the consolidated prefix (if it holds rows) followed by every
        pending chunk in append order.  For the one reader that consumes a
        block exactly once — block migration, whose sources are cleared right
        after; everything that reads a block again uses ``columns``.
        Empty blocks yield no parts.  Treat the dicts as read-only.
        """
        if self._num_rows == 0:
            return []
        if self._columns is None:
            self._fault()
        parts: list[dict[str, np.ndarray]] = []
        if self._columns and len(next(iter(self._columns.values()))):
            parts.append(self._columns)
        parts.extend(self._chunks)
        return parts

    # ------------------------------------------------------------------ #
    # Persistence protocol (spill store / block buffer)
    # ------------------------------------------------------------------ #
    def set_loader(self, loader: Callable[[], dict[str, np.ndarray]] | None) -> None:
        """Install the fault source for this block's spilled columns."""
        self._loader = loader

    def mark_clean(self, loader: Callable[[], dict[str, np.ndarray]]) -> None:
        """Record that the in-memory state was just spilled as ``loader``'s
        version; the block may now drop its columns via :meth:`unload`."""
        self.dirty = False
        self._loader = loader

    def unload(self) -> None:
        """Drop the in-memory columns of a clean block (metadata stays).

        Raises:
            StorageError: if the block is dirty, has pending chunks, or has
                no loader to fault the columns back in from.
        """
        if self.dirty or self._chunks:
            raise StorageError(
                f"block {self.block_id} has unspilled changes and cannot be unloaded"
            )
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} has no spill loader and cannot be unloaded"
            )
        self._columns = None

    def _fault(self) -> None:
        """Materialize the consolidated columns from the bound loader."""
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} is unloaded and has no loader to fault from"
            )
        self._columns = dict(self._loader())

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> np.ndarray:
        """Return the array for column ``name``."""
        try:
            return self.columns[name]
        except KeyError:
            raise StorageError(f"block {self.block_id} has no column {name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Block(block_id={self.block_id}, table={self.table!r}, "
            f"num_rows={self._num_rows}, pending_chunks={len(self._chunks)})"
        )


def compute_ranges(columns: dict[str, np.ndarray]) -> dict[str, tuple[float, float]]:
    """Compute per-column (min, max) metadata, skipping empty columns."""
    ranges: dict[str, tuple[float, float]] = {}
    for name, array in columns.items():
        if len(array) == 0:
            continue
        ranges[name] = (float(array.min()), float(array.max()))
    return ranges


def concatenate_columns(parts: list[dict[str, np.ndarray]], schema: Schema | None = None) -> dict[str, np.ndarray]:
    """Concatenate a list of column dictionaries row-wise.

    All parts must share the same column set.  An empty list yields empty
    arrays for the columns of ``schema`` (or an empty dict without a schema).
    """
    if not parts:
        if schema is None:
            return {}
        return {
            column.name: np.empty(0, dtype=column.dtype.numpy_dtype)
            for column in schema.columns
        }
    names = list(parts[0])
    for part in parts[1:]:
        if list(part) != names:
            raise StorageError("cannot concatenate column sets with differing columns")
    return {name: np.concatenate([part[name] for part in parts]) for name in names}
