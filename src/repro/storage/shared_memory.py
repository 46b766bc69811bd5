"""Shared-memory block transport for the multi-core execution backend.

The parallel backend (``repro.parallel``) runs one worker process per
simulated machine.  Workers must read block columns without serialising
them through the task queue, so this module keeps, per table, one named
``multiprocessing.shared_memory`` segment — a **slab** — that is a cache of
block column copies:

* :class:`SharedBlockStore` (parent side) sits under the
  :class:`~repro.storage.dfs.DistributedFileSystem`.  ``pin_table(table,
  block_ids, columns)`` makes the slab current for exactly the blocks and
  columns a stage is about to read.  When the table's epoch moved, the
  slots of blocks that
  :meth:`~repro.storage.table.StoredTable.changed_since` the slab's epoch
  are stale and dropped; then each requested column a block's slot lacks
  is copied in through ``block.arrays(names)``, so a column no
  stage reads is neither copied nor compacted, exactly as on the inline
  path.  Copies are appended at the slab's tail.  When the tail reaches the
  end, the live extents are compacted once; only if that leaves too little
  room is the segment replaced by a fresh one sized for every column of the
  table.  The returned :class:`TablePin` is what crosses the process
  boundary: segment name, the ``(name, dtype)`` of each column read and,
  per block read, ``(num_rows, offsets)`` with one offset per column.
* :class:`SharedSegmentCache` (worker side) attaches segments by name and
  wraps slots in :class:`SharedBlockView` objects exposing the same
  ``num_rows`` / ``columns`` reader interface as
  :class:`~repro.storage.block.Block`, so the task kernels in
  ``repro.exec.kernels_tasks`` run unchanged in either process.  A column
  view is built from its offset when a kernel first asks for it, over a
  **read-only** memoryview of the segment: a worker can read a block but
  cannot change it in place (a write raises ``ValueError`` at the write
  site, and the flag cannot be flipped back), exactly like the mmap tier's
  read-only ``np.memmap`` arrays.  A cached view is served only for the slot
  it was built for, so an extent that was compacted away or handed to
  another block never shows through.

Lifecycle: the parent owns every segment (create + unlink) and writes to a
slab only between stages, when no worker reads; workers only ever attach
and detach.  ``SharedBlockStore.close()`` unlinks everything; while the
store owns a segment it is also registered via ``atexit`` so segments
cannot outlive the session even on abnormal teardown (a crashed worker
never owns a segment, so it can leak nothing).
"""

from __future__ import annotations

import atexit
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .table import StoredTable

#: Column start offsets are aligned so every numpy view is itemsize-aligned.
_ALIGN = 16
#: A new slab holds every column of the whole table plus this share: room
#: for the copies a repartition adds before a compaction reclaims the
#: extents of the ones it made stale.
_HEADROOM = 0.125

#: ``(column name, numpy dtype string)`` per column a pin lists.
ColumnSchema = tuple[tuple[str, str], ...]
#: ``(num_rows, offsets)``: where each column of one block's copy starts,
#: in :attr:`TablePin.columns` order.
Slot = tuple[int, tuple[int, ...]]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    A plain attach registers the segment with the attaching process's
    ``resource_tracker``, which then believes it owns cleanup — wrong for
    workers, which never own segments, and noisy at shutdown (the tracker
    warns about "leaked" objects the parent already unlinked).  Python
    3.13 grew a ``track=False`` parameter; on older interpreters we
    suppress the registration by swapping ``resource_tracker.register``
    for a no-op around the attach.  Workers are single-threaded, so the
    swap cannot race, and a register-then-unregister round trip (which
    can itself race the tracker's own lifecycle) is avoided entirely.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


@dataclass(frozen=True)
class TablePin:
    """What a work item carries to read some columns of some blocks of one
    pinned table.

    A plain picklable record, proportional to the blocks and columns listed
    — never to the table.  The parent guarantees a pin is only shipped while
    every slot in it is current.
    """

    table: str
    segment: str
    columns: ColumnSchema
    slots: dict[int, Slot]

    def select(self, block_ids: Iterable[int], names: Collection[str]) -> "TablePin":
        """The pin of one input: the slots of ``block_ids``, ``names`` only."""
        keep = [i for i, (name, _) in enumerate(self.columns) if name in names]
        slots = {b: self.slots[b] for b in block_ids}
        if len(keep) < len(self.columns):
            slots = {b: (rows, tuple(at[i] for i in keep)) for b, (rows, at) in slots.items()}
        columns = tuple(self.columns[i] for i in keep)
        return TablePin(self.table, self.segment, columns, slots)


# --------------------------------------------------------------------- #
# Worker-side read view
# --------------------------------------------------------------------- #
class _SlotColumns(Mapping):
    """The columns of one slot; each view is built when first asked for."""

    __slots__ = ("_buffer", "_num_rows", "_at", "_views")

    def __init__(self, buffer: memoryview, columns: ColumnSchema, slot: Slot) -> None:
        self._buffer = buffer
        self._num_rows, offsets = slot
        #: Column -> ``(dtype, offset)``: a view is one lookup away.
        self._at = {name: (dtype, at) for (name, dtype), at in zip(columns, offsets)}
        self._views: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            dtype, offset = self._at[name]
            # numpy takes writability from the buffer: the view is read-only
            # and ``setflags(write=True)`` on it raises.
            view = self._views[name] = np.frombuffer(
                self._buffer, dtype=dtype, count=self._num_rows, offset=offset
            )
        return view

    def __iter__(self) -> Iterator[str]:
        return iter(self._at)

    def __len__(self) -> int:
        return len(self._at)


class SharedBlockView:
    """Read-only view of one pinned block, mimicking the Block reader API.

    Exposes exactly the surface the task kernels consume: ``num_rows``,
    ``columns`` and ``arrays(names)`` — read-only zero-copy views into the
    shared segment, one contiguous array each, of the columns its pin lists.
    """

    __slots__ = ("block_id", "num_rows", "key", "columns")

    def __init__(
        self, block_id: int, slot: Slot, columns: ColumnSchema, buffer: memoryview
    ) -> None:
        self.block_id = block_id
        self.num_rows = slot[0]
        #: What the view was built over; it is served for nothing else.
        self.key = (columns, slot)
        self.columns = _SlotColumns(buffer, columns, slot)

    def arrays(self, names: list[str]) -> Mapping[str, np.ndarray]:
        """The column views; every column is contiguous (see :meth:`Block.arrays`)."""
        return self.columns


@dataclass
class _Attachment:
    """One attached segment: the mapping, its read-only buffer, its views."""

    segment: str
    shm: shared_memory.SharedMemory
    #: The only buffer block views are ever built over.
    readonly: memoryview
    views: dict[int, SharedBlockView] = field(default_factory=dict)


class SharedSegmentCache:
    """Worker-side cache of attached segments and block views.

    Keyed by table name; a pin with a new segment name (the parent replaced
    an exhausted slab) evicts and detaches the stale attachment.  A block's
    cached view is served only while the pin still lists the columns and
    the slot it was built over — the parent moves a block whose rows
    changed, slides live extents down when it compacts, and reuses the
    space it reclaimed — so a worker never reads rows from before a
    repartition.  Attachments are untracked (see :func:`_attach_untracked`)
    — the parent owns cleanup.
    """

    def __init__(self) -> None:
        self._attached: dict[str, _Attachment] = {}

    def get_blocks(self, pin: TablePin, block_ids: Iterable[int]) -> list[SharedBlockView]:
        """Return views for ``block_ids``, attaching the segment if needed."""
        entry = self._attached.get(pin.table)
        if entry is None or entry.segment != pin.segment:
            if entry is not None:
                self._detach(entry)
            shm = _attach_untracked(pin.segment)
            entry = _Attachment(pin.segment, shm, shm.buf.toreadonly())
            self._attached[pin.table] = entry
        result: list[SharedBlockView] = []
        for block_id in block_ids:
            try:
                slot = pin.slots[block_id]
            except KeyError:
                raise StorageError(
                    f"block {block_id} is not pinned for table {pin.table!r}"
                ) from None
            view = entry.views.get(block_id)
            if view is None or view.key != (pin.columns, slot):
                view = SharedBlockView(block_id, slot, pin.columns, entry.readonly)
                entry.views[block_id] = view
            result.append(view)
        return result

    def _detach(self, entry: _Attachment) -> None:
        for view in entry.views.values():
            view.columns._views.clear()
        entry.views.clear()
        try:
            # The read-only buffer is a second handle on the mapping: release
            # it first or close() could never unmap the stale segment.
            entry.readonly.release()
            entry.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass

    def close(self) -> None:
        """Detach every cached segment (never unlinks — workers don't own)."""
        for entry in self._attached.values():
            self._detach(entry)
        self._attached.clear()


# --------------------------------------------------------------------- #
# Parent-side store
# --------------------------------------------------------------------- #
@dataclass
class _Slab:
    """One table's segment: which block columns it holds, as of which epoch,
    and where its free tail starts."""

    shm: shared_memory.SharedMemory
    epoch: int
    #: Column -> its dtype, fixed by the column's first copy.
    dtypes: dict[str, np.dtype] = field(default_factory=dict)
    #: Block -> ``(num_rows, {column: offset})``.
    slots: dict[int, tuple[int, dict[str, int]]] = field(default_factory=dict)
    #: Where the next copy goes; everything from here to the end is free.
    tail: int = 0
    #: Bytes below the tail that no current slot holds.
    garbage: int = 0

    def extent(self, num_rows: int, name: str) -> int:
        """Bytes one column of a block of ``num_rows`` rows occupies."""
        return _aligned(num_rows * self.dtypes[name].itemsize)

    def release(self, block_id: int) -> None:
        num_rows, offsets = self.slots.pop(block_id)
        self.garbage += sum(self.extent(num_rows, name) for name in offsets)

    def allocate(self, length: int) -> int | None:
        """The tail; at the end, the live extents are compacted first.
        ``None`` if even they leave no room."""
        if self.tail + length > self.shm.size and self.garbage:
            self.compact()
        if self.tail + length > self.shm.size:
            return None
        offset, self.tail = self.tail, self.tail + length
        return offset

    def compact(self) -> None:
        """Slide every live extent towards the start, in offset order."""
        data = np.frombuffer(self.shm.buf, dtype=np.uint8)
        extents = sorted(
            (offset, block_id, name)
            for block_id, (_, offsets) in self.slots.items()
            for name, offset in offsets.items()
        )
        end = 0
        for offset, block_id, name in extents:
            num_rows, offsets = self.slots[block_id]
            length = self.extent(num_rows, name)
            if offset != end:
                data[end : end + length] = data[offset : offset + length]
                offsets[name] = end
            end += length
        self.tail, self.garbage = end, 0


class SharedBlockStore:
    """Keeps one shared-memory slab per pinned table current, column by column.

    Segments use auto-generated names (short enough for macOS's
    31-character POSIX limit).  The store is the sole owner: it closes
    **and unlinks** segments on unpin/close, and keeps an ``atexit`` hook
    registered for as long as it owns one, so a dropped store cannot leak
    segments and a closed one is not kept alive until interpreter exit.
    """

    def __init__(self) -> None:
        self._slabs: dict[str, _Slab] = {}
        #: Bytes written into segments so far (what pinning has cost).
        self.copied_bytes = 0

    # -------------------------------------------------------------- #
    # Pinning
    # -------------------------------------------------------------- #
    def pin_table(
        self, table: "StoredTable", block_ids: Iterable[int], columns: Iterable[str]
    ) -> TablePin:
        """Make ``columns`` of ``block_ids`` current in ``table``'s slab and
        list their slots.

        Slots of blocks changed since the slab's epoch are dropped first;
        then each requested column a block's slot lacks is copied in.  When
        the slab has no room even after compacting, the stage starts over,
        once, in a fresh segment sized for the table as it is now.

        Raises:
            StorageError: if even a fresh segment cannot hold the stage, or a
                block holds a column in another dtype than the slab.
        """
        block_ids, names = list(block_ids), list(columns)
        slab = self._slabs.get(table.name) or self._new_slab(table)
        if slab.epoch != table.epoch:
            for block_id in [b for b in slab.slots if table.changed_since(b, slab.epoch)]:
                slab.release(block_id)
            slab.epoch = table.epoch
        if not self._copy_in(slab, table, block_ids, names):
            slab = self._new_slab(table)
            if not self._copy_in(slab, table, block_ids, names):
                size = slab.shm.size
                self.unpin_table(table.name)
                read = [table.dfs.peek_block(b).arrays(names) for b in block_ids]
                needed = sum(_aligned(arrays[name].nbytes) for arrays in read for name in names)
                raise StorageError(
                    f"a stage reads {needed} bytes of table {table.name!r}; "
                    f"a fresh shared-memory segment holds {size}"
                )
        # A column is typed by its first copy, so a pin of no blocks lists none.
        names = [name for name in names if name in slab.dtypes]
        slots = {b: slab.slots[b] for b in block_ids}
        slots = {b: (rows, tuple(at[n] for n in names)) for b, (rows, at) in slots.items()}
        pinned = tuple((name, slab.dtypes[name].str) for name in names)
        return TablePin(table.name, slab.shm.name, pinned, slots)

    def _new_slab(self, table: "StoredTable") -> _Slab:
        """Replace ``table``'s segment (if any) with an empty one that holds
        every column of every block, plus headroom."""
        self.unpin_table(table.name)
        row_bytes = sum(column.dtype.numpy_dtype.itemsize for column in table.schema.columns)
        size = table.total_rows * row_bytes + _ALIGN * len(table.schema) * len(table.block_ids())
        size = max(_aligned(int(size * (1 + _HEADROOM))), _ALIGN)
        shm = shared_memory.SharedMemory(create=True, size=size)
        if not self._slabs:
            atexit.register(self.close)
        slab = self._slabs[table.name] = _Slab(shm, table.epoch)
        return slab

    def _copy_in(
        self, slab: _Slab, table: "StoredTable", block_ids: list[int], names: list[str]
    ) -> bool:
        """Copy the ``names`` each block's slot lacks; ``False`` once one
        does not fit."""
        for block_id in block_ids:
            slot = slab.slots.get(block_id)
            if slot is None:
                slot = slab.slots[block_id] = (table.dfs.peek_block(block_id).num_rows, {})
            num_rows, offsets = slot
            missing = [name for name in names if name not in offsets]
            if not missing:
                continue
            # Merges only the missing columns; the others stay pending.
            arrays = table.dfs.peek_block(block_id).arrays(missing)
            for name in missing:
                array = arrays[name]
                dtype = slab.dtypes.setdefault(name, array.dtype)
                if array.dtype != dtype:
                    raise StorageError(
                        f"block {block_id} holds {name!r} as {array.dtype}, "
                        f"the slab of table {table.name!r} as {dtype}"
                    )
                length = slab.extent(num_rows, name)
                offset = slab.allocate(length)
                if offset is None:
                    return False
                np.frombuffer(slab.shm.buf, dtype, num_rows, offset)[:] = array
                offsets[name] = offset
                self.copied_bytes += length
        return True

    def segment_of(self, table_name: str) -> str | None:
        """The name of ``table_name``'s segment, or ``None`` if it has none."""
        slab = self._slabs.get(table_name)
        return slab.shm.name if slab else None

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def unpin_table(self, table_name: str) -> None:
        """Unlink a table's segment; a no-op if the table is not pinned."""
        slab = self._slabs.pop(table_name, None)
        if slab is None:
            return
        if not self._slabs:
            atexit.unregister(self.close)
        try:
            slab.shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            slab.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every pinned segment.  Idempotent."""
        for table_name in list(self._slabs):
            self.unpin_table(table_name)

    @property
    def pinned_tables(self) -> list[str]:
        return sorted(self._slabs)

    @property
    def pinned_bytes(self) -> int:
        return sum(slab.shm.size for slab in self._slabs.values())
