"""Shared-memory block transport for the multi-core execution backend.

The parallel backend (``repro.parallel``) runs one worker process per
simulated machine.  Workers must read block columns without serialising
them through the task queue, so this module keeps, per table, one named
``multiprocessing.shared_memory`` segment — a **slab** — that is a cache of
block copies:

* :class:`SharedBlockStore` (parent side) sits under the
  :class:`~repro.storage.dfs.DistributedFileSystem`.  ``pin_table(table,
  block_ids)`` makes the slab current for exactly the blocks a stage is
  about to read.  When the table's epoch moved, the change descriptor
  :meth:`~repro.storage.table.StoredTable.delta_between` returns says which
  slots are stale (a ``full`` or missing descriptor says "all of them");
  their extents go back to the free list, and only the stale blocks *this
  stage reads* are copied in again, so a repartition that moved a fraction
  of the blocks costs a fraction of the table.  The segment is replaced —
  compacted, and regrown if the table grew — only when no free extent fits.
  The returned :class:`TablePin` is what crosses the process boundary:
  segment name, one column schema per table and one ``(num_rows, offset)``
  slot per block read; column offsets follow from those (:func:`_layout`).
* :class:`SharedSegmentCache` (worker side) attaches segments by name and
  wraps slots in :class:`SharedBlockView` objects exposing the same
  ``num_rows`` / ``columns`` reader interface as
  :class:`~repro.storage.block.Block`, so the task kernels in
  ``repro.exec.kernels_tasks`` run unchanged in either process.  A column
  view is built when a kernel first asks for it, over a **read-only**
  memoryview of the segment: a worker can read a block but cannot change it
  in place (a write raises ``ValueError`` at the write site, and the flag
  cannot be flipped back), exactly like the mmap tier's read-only
  ``np.memmap`` arrays.  A cached view is served only for the slot it was
  built for, so an extent reused by another block never shows through.

Lifecycle: the parent owns every segment (create + unlink) and writes to a
slab only between stages, when no worker reads; workers only ever attach
and detach.  ``SharedBlockStore.close()`` unlinks everything; while the
store owns a segment it is also registered via ``atexit`` so segments
cannot outlive the session even on abnormal teardown (a crashed worker
never owns a segment, so it can leak nothing).
"""

from __future__ import annotations

import atexit
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .block import Block
    from .table import StoredTable

#: Column start offsets are aligned so every numpy view is itemsize-aligned.
_ALIGN = 16
#: A new slab holds the whole table plus this share: room for the blocks a
#: repartition grows before the extents of the ones it emptied are reused.
_HEADROOM = 0.125

#: ``(column name, numpy dtype string)`` per column, in slot order.
ColumnSchema = tuple[tuple[str, str], ...]
#: ``(num_rows, offset)``: where one block's copy starts inside the segment.
Slot = tuple[int, int]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _layout(
    schema: ColumnSchema, num_rows: int, offset: int
) -> Iterator[tuple[str, np.dtype, int]]:
    """``(name, dtype, offset)`` of every column of a slot, in schema order."""
    for name, dtype_str in schema:
        dtype = np.dtype(dtype_str)
        yield name, dtype, offset
        offset += _aligned(num_rows * dtype.itemsize)


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
    """What a work item carries to read some blocks of one pinned table.

    A plain picklable record, proportional to the blocks listed — never to
    the table.  The parent guarantees a pin is only shipped while every
    slot in it is current.
    """

    table: str
    segment: str
    schema: ColumnSchema
    slots: dict[int, Slot]


# --------------------------------------------------------------------- #
# Worker-side read view
# --------------------------------------------------------------------- #
class _SlotColumns(Mapping):
    """The columns of one slot; each view is built when first asked for."""

    __slots__ = ("_buffer", "_schema", "_slot", "_views")

    def __init__(self, buffer: memoryview, schema: ColumnSchema, slot: Slot) -> None:
        self._buffer, self._schema, self._slot = buffer, schema, slot
        self._views: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            num_rows, start = self._slot
            for column, dtype, offset in _layout(self._schema, num_rows, start):
                if column == name:
                    break
            else:
                raise KeyError(name)
            # numpy takes writability from the buffer: the view is read-only
            # and ``setflags(write=True)`` on it raises.
            view = self._views[name] = (
                np.frombuffer(self._buffer, dtype=dtype, count=num_rows, offset=offset)
                if num_rows
                else np.empty(0, dtype=dtype)
            )
        return view

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._schema)

    def __len__(self) -> int:
        return len(self._schema)


class SharedBlockView:
    """Read-only view of one pinned block, mimicking the Block reader API.

    Exposes exactly the surface the task kernels consume: ``num_rows``,
    ``columns`` and ``arrays(names)`` — read-only zero-copy views into the
    shared segment, one contiguous array each (the parent compacts a block
    as it copies it in).
    """

    __slots__ = ("block_id", "num_rows", "slot", "columns")

    def __init__(
        self, block_id: int, slot: Slot, schema: ColumnSchema, buffer: memoryview
    ) -> None:
        self.block_id = block_id
        self.num_rows = slot[0]
        self.slot = slot
        self.columns = _SlotColumns(buffer, schema, slot)

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
    cached view is served only while the pin still names the slot it was
    built over — the parent moves a block whose rows changed, and may hand
    its old extent to another block — so a worker never reads rows from
    before a repartition.  Attachments are untracked (see
    :func:`_attach_untracked`) — the parent owns cleanup.
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
            if view is None or view.slot != slot:
                view = SharedBlockView(block_id, slot, pin.schema, entry.readonly)
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
    """One table's segment: which blocks it holds, as of which epoch, and
    which extents are free."""

    shm: shared_memory.SharedMemory
    schema: ColumnSchema
    epoch: int
    slots: dict[int, Slot] = field(default_factory=dict)
    #: ``(offset, length)`` extents holding no current block.
    free: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._itemsizes = [np.dtype(dtype).itemsize for _, dtype in self.schema]

    def slot_bytes(self, num_rows: int) -> int:
        """Bytes a block of ``num_rows`` rows occupies (see :func:`_layout`)."""
        return sum(_aligned(num_rows * itemsize) for itemsize in self._itemsizes)

    def release(self, block_id: int) -> None:
        num_rows, offset = self.slots.pop(block_id)
        if num_rows:
            # In front of the untouched tail: pages already resident go first.
            self.free.insert(0, (offset, self.slot_bytes(num_rows)))

    def allocate(self, length: int) -> int | None:
        """First fit; on a miss the live slots are compacted once."""
        for compacted in (False, True):
            for index, (offset, size) in enumerate(self.free):
                if size > length:
                    self.free[index] = (offset + length, size - length)
                elif size == length:
                    del self.free[index]
                else:
                    continue
                return offset
            if not compacted:
                self.compact()
        return None

    def compact(self) -> None:
        """Slide every live slot towards the start; one free extent remains."""
        data = np.frombuffer(self.shm.buf, dtype=np.uint8)
        end = 0
        for block_id, (num_rows, offset) in sorted(
            self.slots.items(), key=lambda item: item[1][1]
        ):
            length = self.slot_bytes(num_rows)
            if length and offset != end:
                data[end : end + length] = data[offset : offset + length]
                self.slots[block_id] = (num_rows, end)
            end += length
        self.free = [(end, self.shm.size - end)]


class SharedBlockStore:
    """Keeps one shared-memory slab per pinned table current, block by block.

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
    def pin_table(self, table: "StoredTable", block_ids: Iterable[int]) -> TablePin:
        """Make ``block_ids`` current in ``table``'s slab and list their slots.

        Slots of blocks touched since the slab's epoch are dropped first;
        then whichever of ``block_ids`` the slab does not hold is copied in.
        """
        block_ids = list(block_ids)
        slab = self._slabs.get(table.name) or self._new_slab(table)
        if slab.epoch != table.epoch:
            delta = table.delta_between(slab.epoch, table.epoch)
            everything = delta is None or delta.full
            stale = slab.slots.keys() if everything else delta.touched_blocks
            for block_id in [b for b in stale if b in slab.slots]:
                slab.release(block_id)
            slab.epoch = table.epoch
        for block_id in block_ids:
            if block_id in slab.slots:
                continue
            if not self._copy_in(slab, table.dfs.peek_block(block_id)):
                # No free extent fits: start over in a fresh segment sized
                # for the table as it is now, which holds any one stage.
                self._new_slab(table)
                return self.pin_table(table, block_ids)
        slots = {block_id: slab.slots[block_id] for block_id in block_ids}
        return TablePin(table.name, slab.shm.name, slab.schema, slots)

    def _new_slab(self, table: "StoredTable") -> _Slab:
        """Replace ``table``'s segment (if any) with an empty, larger-enough one."""
        self.unpin_table(table.name)
        block_ids = table.block_ids()
        sample = (table.non_empty_block_ids() or block_ids)[:1]
        columns = table.dfs.peek_block(sample[0]).columns if sample else {}
        schema = tuple((name, array.dtype.str) for name, array in columns.items())
        # Every block at once, each column padded to the alignment, plus headroom.
        row_bytes = sum(array.dtype.itemsize for array in columns.values())
        size = table.total_rows * row_bytes + _ALIGN * len(schema) * len(block_ids)
        size = max(_aligned(int(size * (1 + _HEADROOM))), _ALIGN)
        shm = shared_memory.SharedMemory(create=True, size=size)
        if not self._slabs:
            atexit.register(self.close)
        slab = self._slabs[table.name] = _Slab(shm, schema, table.epoch, free=[(0, shm.size)])
        return slab

    def _copy_in(self, slab: _Slab, block: "Block") -> bool:
        """Copy ``block`` into a free extent; ``False`` if none is big enough."""
        num_rows = block.num_rows
        length = slab.slot_bytes(num_rows)
        offset = slab.allocate(length) if length else 0
        if offset is None:
            return False
        if num_rows:
            # .columns consolidates pending chunks → contiguous arrays (and lets
            # go of the larger arrays the chunks were slices of).
            columns = block.columns
            for name, dtype, at in _layout(slab.schema, num_rows, offset):
                if columns[name].dtype != dtype:
                    raise StorageError(
                        f"block {block.block_id} holds {name!r} as {columns[name].dtype}, "
                        f"the slab of table {block.table!r} as {dtype}"
                    )
                np.frombuffer(slab.shm.buf, dtype=dtype, count=num_rows, offset=at)[:] = (
                    columns[name]
                )
        self.copied_bytes += length
        slab.slots[block.block_id] = (num_rows, offset)
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
