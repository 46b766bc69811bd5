"""Data blocks.

A block is the unit of storage, placement, pruning and join scheduling —
the equivalent of a 64 MB HDFS block in the paper.  Blocks store real rows
(one numpy array per column) so joins can be executed and verified, and they
carry per-column min/max metadata, which is what the hyper-join overlap
computation and the partitioning-tree lookup consume.  Every column array
a block stores is read-only — its initial columns (views of the caller's
arrays), merged columns and rewrites alike — so a kernel that writes to a
block it reads raises instead of silently changing a live block.

**Ranges** are two float64 vectors per block, lows and highs, over a column
index (column name -> position) that every block with the same column
layout shares.  An absent range is the empty interval ``(inf, -inf)``, so an
append merges a block's ranges with one ``np.fmin`` / ``np.fmax``.  Ranges
skip NaN (it matches no predicate and no join key): a column whose rows are
all NaN has no range, like an empty one.
:attr:`Block.ranges` derives the ``{column: (lo, hi)}`` dict from them;
readers that want one column's range ask :meth:`Block.find_range`.

**Appends are records.**  An append (the smooth-repartitioning write path)
keeps one record, ``(column index, batch columns, start, end)``: rows
``start:end`` of a :class:`Batch` of columns that many blocks share.  The
record serves every column, so an append costs O(1) Python whatever the
column count, plus the range merge and the row and byte counters — an
LSM-style write path with deferred compaction.  The block also keeps which columns still have
unmerged records (its *stale* columns) and each stale column's old contents.
A stale column's entry in the column mapping is ``None``, so no reader ever
sees a stale array.  Who compacts: the first read of a column after an
append, in place and once — a block is read hundreds of times between
appends.  A task names the columns it reads (``arrays``), so the columns no
task reads stay stale; ``columns`` (a spill, a shared-memory pin, a
re-split) compacts every column.  When the last stale column merges, the
records are dropped.  A merged column also drops its entries from the
block's records, so a batch column lives only while some block that
appended it still has that column stale, as a slice would.  Who
deliberately does not compact: block migration streams ``column_pieces()``
of its sources, which are about to be cleared; compacting them first would
copy every row twice.

Under the persistence tier residency is **per column**.  An unloaded
block has dropped every column (all of them are *absent*); a read faults
in, with one call of the bound loader, only the absent columns it names —
``arrays(names)`` those names, ``columns`` every absent column — so a block
read for two of its twelve columns holds two.  Absent columns are tracked
the way stale ones are, so a fully resident block pays one truthiness test
per read.  Metadata — ranges, ``size_bytes``, ``num_rows`` — always stays
resident, so planning peeks and pruning never touch disk;
``resident_bytes`` (``size_bytes`` less the spilled rows of the absent
columns, kept incrementally) is what the block buffer charges.  Appends to
an unloaded or partly resident block become records without faulting; an
absent column's spilled rows become its old contents when it faults, so no
row is lost.  ``dirty`` tracks whether the in-memory state has diverged
from the newest spill — only clean blocks may drop their columns, dirty
ones are written back first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Mapping, cast

import numpy as np

from ..common.errors import StorageError
from ..common.schema import Schema


def _estimate_bytes(columns: dict[str, np.ndarray]) -> int:
    """Approximate the on-disk size of a set of column arrays."""
    return int(sum(array.nbytes for array in columns.values()))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` as a block stores it: read-only, a view when the caller's
    array is writeable, so no kernel can overwrite a live block."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.flags.writeable = False
    return view


def _chunk_rows(columns: dict[str, np.ndarray], block_id: int) -> int:
    """Validate that all arrays share one length and return it."""
    lengths = {len(array) for array in columns.values()}
    if len(lengths) > 1:
        raise StorageError(f"block {block_id}: column lengths differ ({lengths})")
    return lengths.pop() if lengths else 0


@lru_cache(maxsize=1024)
def column_index(names: tuple[str, ...]) -> dict[str, int]:
    """The shared index of one column layout: column name -> position.

    There is one dict per recent layout, so blocks and batches whose
    columns come in the same order hold the same object, and a block
    recognises a batch's layout with one identity test (a layout evicted
    and rebuilt only costs that block one re-lay).  Read-only.
    """
    return {name: position for position, name in enumerate(names)}


class Batch:
    """Columns whose row ranges several blocks append.

    Block migration sorts the moved rows by target block once; each target
    then appends its range ``start:end`` of the one batch.
    """

    __slots__ = ("index", "columns", "row_bytes")

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self.index = column_index(tuple(columns))
        self.columns = list(columns.values())
        #: Bytes of one row over all columns: a range of n rows is n times this.
        self.row_bytes = sum(array.itemsize for array in self.columns)


#: Maps the named spilled columns in: column name -> read-only array.
Loader = Callable[[list[str]], dict[str, np.ndarray]]

#: One append, shared by all of its columns: rows ``start:end`` of a batch,
#: as ``(batch.index, columns, start, end)``.  ``columns`` is the block's own
#: copy of the batch's column list, in which a merged column is ``None``.
Record = tuple[dict[str, int], list[np.ndarray | None], int, int]


class Block:
    """A horizontal slice of a table.

    Attributes:
        block_id: Globally unique identifier assigned by the DFS.
        table: Name of the table the block belongs to.
        size_bytes: Approximate size of the block, maintained incrementally.
    """

    __slots__ = (
        "block_id", "table", "size_bytes",
        "_columns", "_index", "_lo", "_hi", "_records", "_stale", "_old",
        "_absent", "_absent_bytes", "_num_rows", "_loader", "dirty", "__weakref__",
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
        #: Column name -> its contiguous read-only array, or ``None`` while
        #: the column is stale or absent.  A column's key keeps its place.
        self._columns: dict[str, np.ndarray | None] = {
            name: _frozen(array) for name, array in columns.items()
        }
        #: Appends that some column has not merged yet, oldest first.
        self._records: list[Record] = []
        #: Stale column -> position in ``_records`` of its first unmerged one.
        self._stale: dict[str, int] = {}
        #: Stale column -> its contents before that record (``None`` while
        #: the column is absent).
        self._old: dict[str, np.ndarray | None] = {}
        #: Columns whose spilled rows are not in memory, and those rows' bytes.
        self._absent: dict[str, None] = {}
        self._absent_bytes = 0
        self._num_rows = _chunk_rows(columns, block_id)
        self._set_ranges(ranges if ranges else compute_ranges(columns), columns)
        self.size_bytes = size_bytes if size_bytes else _estimate_bytes(columns)
        #: Faults columns of the newest spilled version in; bound by the buffer.
        self._loader: Loader | None = None
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
        column_names: Iterable[str],
    ) -> "Block":
        """Rebuild a *cold* block from checkpointed metadata.

        The block starts clean with every column absent; its columns fault
        in through the loader the restore path binds right after
        construction.
        """
        block = cls(
            block_id=block_id,
            table=table,
            columns={},
            ranges=dict(ranges),
            size_bytes=size_bytes,
        )
        block._columns = dict.fromkeys(column_names)
        block._absent = dict.fromkeys(column_names)
        block._absent_bytes = size_bytes
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

        Faults every absent column in through the bound loader (one call),
        then consolidates every stale column.
        """
        if self._absent:
            self._fault(list(self._absent))
        if self._stale:
            self.consolidate()
        return cast("dict[str, np.ndarray]", self._columns)

    def arrays(self, names: list[str]) -> Mapping[str, np.ndarray | None]:
        """A mapping in which each of ``names`` is one contiguous array.

        Like :attr:`columns`, but only ``names`` are faulted in and
        consolidated: a reader that needs two of twelve columns leaves the
        other ten absent or stale, and their entries are ``None``, never
        stale arrays.  Treat the result as read-only and as valid until the
        block's next append; it is the block's own mapping, not a copy.
        """
        if self._absent and not self._absent.keys().isdisjoint(names):
            self._fault(names)
        if self._stale and not self._stale.keys().isdisjoint(names):
            self._merge(names)
        return cast("dict[str, np.ndarray | None]", self._columns)

    @property
    def pending_columns(self) -> dict[str, int]:
        """Stale column -> pieces awaiting one merge: its old contents, if
        any, plus one per unmerged append (empty when contiguous)."""
        records, old = len(self._records), self._old
        return {
            name: records - first + (old.get(name) is not None and len(old[name]) > 0)
            for name, first in self._stale.items()
        }

    @property
    def is_resident(self) -> bool:
        """Whether some column's spilled rows are in memory."""
        return len(self._absent) < len(self._columns)

    @property
    def resident_bytes(self) -> int:
        """``size_bytes`` less the spilled rows of the absent columns: the
        bytes the block holds in memory (O(1), tracked incrementally)."""
        return self.size_bytes - self._absent_bytes

    @property
    def column_names(self) -> list[str]:
        """Names of the stored columns (faults if unloaded)."""
        return list(self.columns)

    @property
    def ranges(self) -> dict[str, tuple[float, float]]:
        """Column name -> (min, max) over the block's rows, derived from the
        range vectors; a column without rows has no entry.  Columns come in
        the order they first got a range."""
        lows, highs = self._lo.tolist(), self._hi.tolist()
        return {
            name: (lows[position], highs[position])
            for name, position in self._index.items()
            if not lows[position] > highs[position]
        }

    def find_range(self, column: str) -> tuple[float, float] | None:
        """The (min, max) of ``column`` over the block's rows, or ``None``
        when the block has no range for it (no such column, or no rows)."""
        position = self._index.get(column)
        if position is None:
            return None
        lo, hi = self._lo.item(position), self._hi.item(position)
        return None if lo > hi else (lo, hi)

    def range_of(self, column: str) -> tuple[float, float]:
        """Return the (min, max) of ``column`` over the block's rows.

        Raises:
            StorageError: if the column is absent or the block is empty.
        """
        found = self.find_range(column)
        if found is None:
            raise StorageError(f"block {self.block_id} has no range metadata for column {column!r}")
        return found

    def _set_ranges(
        self, ranges: Mapping[str, tuple[float, float]], columns: Iterable[str]
    ) -> None:
        """Lay ``ranges`` out as the range vectors: the ranged columns first,
        in order, then the other ``columns`` with the empty interval
        ``(inf, -inf)``.  Ranged columns always lead the index, so
        :attr:`ranges` lists them in the order they got a range."""
        names = tuple(dict.fromkeys([*ranges, *columns]))
        padding = len(names) - len(ranges)
        self._index = column_index(names)
        lows = [lo for lo, _ in ranges.values()] + [np.inf] * padding
        highs = [hi for _, hi in ranges.values()] + [-np.inf] * padding
        self._lo = np.array(lows, dtype=np.float64)
        self._hi = np.array(highs, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Mutation (append path)
    # ------------------------------------------------------------------ #
    def append_rows(self, rows: dict[str, np.ndarray]) -> int:
        """Append ``rows`` as one record, updating metadata incrementally.

        ``rows`` maps every column name to a value array, all of equal
        length; returns how many rows were appended.  Ranges merge via
        min/max against the incoming rows only, the row and byte counters
        accumulate, and no data is copied until the next read of each column.
        """
        added = _chunk_rows(rows, self.block_id)
        if added == 0:
            return 0
        # Validate against the *effective* column set — consolidated and
        # stale together (an initially column-less block has only the
        # latter) — so validation always agrees with what a read produces.
        stored = (self._columns or {}).keys() | self._stale.keys()
        if stored and rows.keys() != stored:
            raise StorageError(
                f"block {self.block_id}: appended columns {sorted(rows)} do not match "
                f"stored columns {sorted(stored)}"
            )
        pieces = list(rows.values())
        lows = np.array([np.fmin.reduce(piece) for piece in pieces], dtype=np.float64)
        highs = np.array([np.fmax.reduce(piece) for piece in pieces], dtype=np.float64)
        self.extend(Batch(rows), 0, added, lows, highs)
        return added

    def extend(
        self, batch: Batch, start: int, end: int, lows: np.ndarray, highs: np.ndarray
    ) -> None:
        """Trusted append of rows ``start:end`` of ``batch``, whose per-column
        (min, max) over those rows are ``lows`` / ``highs``: float64 vectors
        in the batch's column order, NaN where the rows have no range.

        Block migration calls this once per target block: it has sorted one
        batch by target and derived every target's ranges with one
        ``reduceat`` per column, so nothing is validated or reduced here.
        The append is one record and one range merge.  Only a column merged
        since the previous append is visited, to set its contents aside.
        """
        index = batch.index
        if self._index is not index:
            # Another layout: re-lay the vectors, ranged columns still
            # first, and scatter the batch's ranges into them.
            self._set_ranges(self.ranges, [*index, *self._index])
            positions = [self._index[name] for name in index]
            lows_at, highs_at = np.full((2, len(self._index)), [[np.inf], [-np.inf]])
            lows_at[positions], highs_at[positions] = lows, highs
            lows, highs = lows_at, highs_at
        np.fmin(self._lo, lows, out=self._lo)
        np.fmax(self._hi, highs, out=self._hi)
        stale = self._stale
        if not stale:
            # Every column is merged, so no record is left: the mapping
            # becomes every column's old contents.  An absent column's old
            # contents join on its fault instead.
            columns = self._columns
            self._old = columns
            self._columns = {**columns, **dict.fromkeys(index)}
            self._stale = dict.fromkeys(index, 0)
        elif not stale.keys() >= index.keys():
            self._set_aside(index)
        self._records.append((index, list(batch.columns), start, end))
        self.dirty = True
        self._num_rows += end - start
        self.size_bytes += (end - start) * batch.row_bytes

    def _set_aside(self, index: Mapping[str, int]) -> None:
        """Make the columns of ``index`` that are merged stale: their
        contents become their old contents, and their unmerged records
        start with the one about to be appended."""
        columns, stale, old = self._columns, self._stale, self._old
        first = len(self._records)
        for name in index:
            if name not in stale:
                stale[name] = first
                old[name], columns[name] = columns.get(name), None

    def replace_columns(self, columns: dict[str, np.ndarray]) -> None:
        """Replace the block's contents and recompute ranges and size exactly.

        This is the only wholesale-rewrite entry point: contents, ranges and
        ``size_bytes`` always change together, so stale range metadata can
        never silently prune a block with live rows.
        """
        self._columns = {name: _frozen(array) for name, array in columns.items()}
        self._records, self._stale, self._old = [], {}, {}
        self._absent, self._absent_bytes = {}, 0
        self._num_rows = _chunk_rows(columns, self.block_id)
        self._set_ranges(compute_ranges(columns), columns)
        self.size_bytes = _estimate_bytes(columns)
        self.dirty = True

    def clear(self, empty_columns: dict[str, np.ndarray]) -> None:
        """Empty the block in place (its rows have been migrated elsewhere)."""
        self._columns = {name: _frozen(array) for name, array in empty_columns.items()}
        self._records, self._stale, self._old = [], {}, {}
        self._absent, self._absent_bytes = {}, 0
        self._num_rows = 0
        self._lo = np.full(len(self._index), np.inf)
        self._hi = np.full(len(self._index), -np.inf)
        self.size_bytes = 0
        self.dirty = True

    def consolidate(self) -> None:
        """Merge every stale column into a contiguous array.

        ``size_bytes`` is re-derived from the consolidated arrays afterwards,
        so it is exact whatever dtype promotions the merges did.
        """
        if not self._stale:
            return
        if self._absent:
            self._fault(list(self._absent))
        self._merge(list(self._stale))
        self.size_bytes = _estimate_bytes(cast("dict[str, np.ndarray]", self._columns))

    def _pieces(self, name: str, first: int, release: bool = False) -> list[np.ndarray]:
        """Stale column ``name``'s pieces in row order: its old contents,
        if it has rows, then its slice of every record from ``first`` on.
        With ``release``, the records let go of the column."""
        old = self._old.get(name)
        pieces = [old] if old is not None and len(old) else []
        for index, columns, start, end in self._records[first:]:
            position = index[name]
            pieces.append(columns[position][start:end])
            if release:
                columns[position] = None
        return pieces

    def _merge(self, names: Iterable[str]) -> None:
        """Merge the stale columns among ``names``; drop the records once no
        column is stale.  The caller has faulted absent ones in."""
        columns, stale = self._columns, self._stale
        for name in names:
            first = stale.pop(name, None)
            if first is None:
                continue
            # Always a copy, and the records let go of the column: a batch
            # column stays alive only while some block still needs it.
            pieces = self._pieces(name, first, release=True)
            self._old.pop(name, None)
            merged = np.concatenate(pieces)
            merged.flags.writeable = False
            self.size_bytes += merged.nbytes - sum(piece.nbytes for piece in pieces)
            columns[name] = merged
        if not stale:
            self._records, self._old = [], {}

    def column_pieces(self) -> dict[str, list[np.ndarray]]:
        """The block's raw storage per column, in row order, without consolidating.

        A merged column is one piece; a stale one is its old contents and
        its record slices.  For the one reader that consumes a
        block exactly once — block migration, whose sources are cleared right
        after; everything that reads a block again uses ``arrays`` or
        ``columns``.  Empty blocks yield no columns.  Treat the result as
        read-only.
        """
        if self._num_rows == 0:
            return {}
        if self._absent:
            self._fault(list(self._absent))
        columns, stale = self._columns, self._stale
        return {
            name: [array] if array is not None else self._pieces(name, stale[name])
            for name, array in columns.items()
        }

    # ------------------------------------------------------------------ #
    # Persistence protocol (spill store / block buffer)
    # ------------------------------------------------------------------ #
    def set_loader(self, loader: Loader | None) -> None:
        """Install the fault source for this block's spilled columns."""
        self._loader = loader

    def mark_clean(self, loader: Loader) -> None:
        """Record that the in-memory state was just spilled as ``loader``'s
        version; the block may now drop its columns via :meth:`unload`."""
        self.dirty = False
        self._loader = loader

    def unload(self) -> None:
        """Drop every in-memory column of a clean block (metadata stays).

        Raises:
            StorageError: if the block is dirty, has stale columns, or has
                no loader to fault the columns back in from.
        """
        if self.dirty or self._stale:
            raise StorageError(
                f"block {self.block_id} has unspilled changes and cannot be unloaded"
            )
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} has no spill loader and cannot be unloaded"
            )
        self._columns = dict.fromkeys(self._columns)
        self._absent = dict.fromkeys(self._columns)
        self._absent_bytes = self.size_bytes

    def _fault(self, names: Iterable[str]) -> None:
        """Map the absent columns among ``names`` in with one loader call; a
        stale column's spilled rows become its old contents."""
        absent = self._absent
        missing = [name for name in names if name in absent]
        if not missing:
            return
        if self._loader is None:
            raise StorageError(
                f"block {self.block_id} is unloaded and has no loader to fault from"
            )
        columns, stale = self._columns, self._stale
        for name, array in self._loader(missing).items():
            del absent[name]
            self._absent_bytes -= array.nbytes
            if name in stale:
                self._old[name] = array
            else:
                columns[name] = array
        if not absent:
            self._absent_bytes = 0

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
            f"num_rows={self._num_rows}, pending_columns={list(self._stale)})"
        )


def compute_ranges(columns: dict[str, np.ndarray]) -> dict[str, tuple[float, float]]:
    """Compute per-column (min, max) metadata over the non-NaN values,
    skipping columns that have none."""
    ranges: dict[str, tuple[float, float]] = {}
    for name, array in columns.items():
        if len(array) == 0:
            continue
        lo = float(np.fmin.reduce(array))
        if lo == lo:  # NaN only when every value is NaN
            ranges[name] = (lo, float(np.fmax.reduce(array)))
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
