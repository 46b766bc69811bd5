"""Data blocks.

A block is the unit of storage, placement, pruning and join scheduling —
the equivalent of a 64 MB HDFS block in the paper.  Blocks store real rows
(one numpy array per column) so joins can be executed and verified, and they
carry per-column min/max metadata, which is what the hyper-join overlap
computation and the partitioning-tree lookup consume.

Storage is *chunked per column*: appends (the smooth-repartitioning write
path) push each incoming column array onto that column's pending list and
only update the per-column min/max ranges and row/byte counters
incrementally — O(appended rows) instead of O(block rows) — an LSM-style
write path with deferred compaction.  A pending column's old contents become
its first piece, so no reader ever sees a stale array.  Who compacts: the
first read of a column after an append, in place and once — a block is read
hundreds of times between appends.  A task names the columns it reads
(``arrays``), so the columns no task reads stay pending; ``columns`` (a
spill, a shared-memory pin, a re-split) compacts every column.  Who
deliberately does not: block migration streams ``column_pieces()`` of its
sources, which are about to be cleared; compacting them first would copy
every row twice.

Under the persistence tier a block can additionally be **unloaded**: its
consolidated columns are dropped (``_columns is None``) and fault back in
through a bound loader on the next columnar read.  Metadata — ranges,
``size_bytes``, ``num_rows`` — always stays resident, so planning peeks and
pruning never touch disk.  Appends to an unloaded block land on the pending
lists without faulting; the on-disk prefix is only read when something
actually consumes the rows.  ``dirty`` tracks whether the in-memory state
has diverged from the newest spill — only clean blocks may drop their
columns, dirty ones are written back first.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence, cast

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
        "_columns", "_pending", "_num_rows", "_loader", "dirty", "__weakref__",
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
        #: Column name -> its contiguous array, or ``None`` while appends to
        #: it await a merge: its pieces, old contents first, are in
        #: ``_pending``.  A column's key keeps its place either way.
        self._columns: dict[str, np.ndarray | None] | None = dict(columns)
        #: Column name -> its pieces in row order, awaiting one merge.
        self._pending: dict[str, list[np.ndarray]] = {}
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
        then consolidates every pending column.
        """
        if self._columns is None:
            self._fault()
        if self._pending:
            self.consolidate()
        return cast("dict[str, np.ndarray]", self._columns)

    def arrays(self, names: list[str]) -> Mapping[str, np.ndarray | None]:
        """A mapping in which each of ``names`` is one contiguous array.

        Like :attr:`columns`, but only ``names`` are consolidated: a reader
        that needs two of twelve columns leaves the other ten pending, and
        their entries are ``None``, never stale.  Treat the result as
        read-only; it is the block's own mapping, not a copy.
        """
        if self._columns is None:
            self._fault()
        if self._pending and not self._pending.keys().isdisjoint(names):
            self._merge(names)
        return cast("dict[str, np.ndarray | None]", self._columns)

    @property
    def pending_columns(self) -> dict[str, int]:
        """Column -> pieces awaiting one merge (empty when contiguous)."""
        return {name: len(pieces) for name, pieces in self._pending.items()}

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
    def append_rows(self, rows: dict[str, np.ndarray]) -> int:
        """Append ``rows`` as pending pieces, updating metadata incrementally.

        ``rows`` maps every column name to a value array, all of equal
        length; returns how many rows were appended.  Ranges merge via
        min/max against the incoming rows only, the row and byte counters
        accumulate, and no data is copied until the next read of each column.
        """
        added = _chunk_rows(rows, self.block_id)
        if added == 0:
            return 0
        # Validate against the *effective* column set — consolidated and
        # pending together (an initially column-less block has only the
        # latter) — so validation always agrees with what a read produces.
        stored = (self._columns or {}).keys() | self._pending.keys()
        if stored and rows.keys() != stored:
            raise StorageError(
                f"block {self.block_id}: appended columns {sorted(rows)} do not match "
                f"stored columns {sorted(stored)}"
            )
        pieces = list(rows.values())
        lows = [float(piece.min()) for piece in pieces]
        self.extend(list(rows), pieces, added, lows, [float(piece.max()) for piece in pieces])
        return added

    def extend(
        self,
        names: list[str],
        pieces: list[np.ndarray],
        num_rows: int,
        lows: Sequence[float],
        highs: Sequence[float],
    ) -> None:
        """Trusted append of ``num_rows`` rows: ``pieces[i]`` holds column
        ``names[i]``, whose (min, max) over the piece is ``(lows[i], highs[i])``.

        Block migration calls this once per target block: it has cut the
        pieces from one sorted batch and derived every target's ranges with
        one ``reduceat`` per column, so nothing is validated or reduced here.
        """
        columns, pending = self._columns, self._pending
        ranges = self.ranges
        added_bytes = 0
        for name, piece, lo, hi in zip(names, pieces, lows, highs):
            column = pending.get(name)
            if column is not None:
                column.append(piece)
            else:
                # An unloaded block's old contents join on the fault instead.
                prefix = None
                if columns is not None:
                    prefix, columns[name] = columns.get(name), None
                pending[name] = [prefix, piece] if prefix is not None and len(prefix) else [piece]
            added_bytes += piece.nbytes
            existing = ranges.get(name)
            if existing is not None:
                if existing[0] < lo:
                    lo = existing[0]
                if existing[1] > hi:
                    hi = existing[1]
            ranges[name] = (lo, hi)
        self.dirty = True
        self._num_rows += num_rows
        self.size_bytes += added_bytes

    def replace_columns(self, columns: dict[str, np.ndarray]) -> None:
        """Replace the block's contents and recompute ranges and size exactly.

        This is the only wholesale-rewrite entry point: contents, ranges and
        ``size_bytes`` always change together, so stale range metadata can
        never silently prune a block with live rows.
        """
        self._columns = dict(columns)
        self._pending = {}
        self._num_rows = _chunk_rows(self._columns, self.block_id)
        self.ranges = compute_ranges(self._columns)
        self.size_bytes = _estimate_bytes(self._columns)
        self.dirty = True

    def clear(self, empty_columns: dict[str, np.ndarray]) -> None:
        """Empty the block in place (its rows have been migrated elsewhere)."""
        self._columns = dict(empty_columns)
        self._pending = {}
        self._num_rows = 0
        self.ranges = {}
        self.size_bytes = 0
        self.dirty = True

    def consolidate(self) -> None:
        """Merge every pending column into a contiguous array.

        ``size_bytes`` is re-derived from the consolidated arrays afterwards,
        so it is exact whatever dtype promotions the merges did.
        """
        if not self._pending:
            return
        if self._columns is None:
            self._fault()
        self._merge(list(self._pending))
        assert self._columns is not None
        self.size_bytes = _estimate_bytes(self._columns)

    def _merge(self, names: Iterable[str]) -> None:
        """Merge the pending pieces of ``names`` into their columns.

        The pieces are in row order, the old contents first.  The caller
        has faulted an unloaded block in.
        """
        columns, pending = self._columns, self._pending
        assert columns is not None
        for name in names:
            pieces = pending.pop(name, None)
            if pieces is None:
                continue
            # Always a copy: a lone piece is a slice of a migration batch,
            # which it would otherwise keep alive.
            merged = np.concatenate(pieces)
            self.size_bytes += merged.nbytes - sum(piece.nbytes for piece in pieces)
            columns[name] = merged

    def column_pieces(self) -> dict[str, list[np.ndarray]]:
        """The block's raw storage per column, in row order, without consolidating.

        A complete column is one piece; a pending one is its pieces in row
        order.  For the one reader that consumes a
        block exactly once — block migration, whose sources are cleared right
        after; everything that reads a block again uses ``arrays`` or
        ``columns``.  Empty blocks yield no columns.  Treat the result as
        read-only.
        """
        if self._num_rows == 0:
            return {}
        if self._columns is None:
            self._fault()
        columns = self._columns
        assert columns is not None
        pieces = dict(self._pending)
        return {name: pieces.get(name) or [array] for name, array in columns.items()}

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
            StorageError: if the block is dirty, has pending columns, or has
                no loader to fault the columns back in from.
        """
        if self.dirty or self._pending:
            raise StorageError(
                f"block {self.block_id} has unspilled changes and cannot be unloaded"
            )
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} has no spill loader and cannot be unloaded"
            )
        self._columns = None

    def _fault(self) -> None:
        """Materialize the spilled columns from the bound loader; a column
        appended to while unloaded gets its spilled rows as first piece."""
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} is unloaded and has no loader to fault from"
            )
        columns: dict[str, np.ndarray | None] = dict(self._loader())
        for name, pieces in self._pending.items():
            prefix, columns[name] = columns.get(name), None
            if prefix is not None and len(prefix):
                pieces.insert(0, prefix)
        self._columns = columns

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
            f"num_rows={self._num_rows}, pending_columns={list(self._pending)})"
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
