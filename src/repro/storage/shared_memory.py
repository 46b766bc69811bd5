"""Shared-memory block transport for the multi-core execution backend.

The parallel backend (``repro.parallel``) runs one worker process per
simulated machine.  Workers must read block columns without serialising
them through the task queue, so this module pins a table's consolidated
per-column arrays into named ``multiprocessing.shared_memory`` segments:

* :class:`SharedBlockStore` (parent side) sits under the
  :class:`~repro.storage.dfs.DistributedFileSystem`: ``pin_table`` copies
  every block's contiguous columns (the PR-2 chunk consolidation makes
  them contiguous already) into one segment per table and returns a
  :class:`TablePin` — a picklable catalog of ``(offset, dtype, length)``
  column specs.  Pins are **epoch-checked**: re-pinning a table whose
  partition-state epoch moved unlinks the stale segment and builds a
  fresh one, so a repartition can never leave workers reading old rows.
* :class:`SharedSegmentCache` (worker side) attaches segments by name and
  wraps them in :class:`SharedBlockView` objects exposing the same
  ``num_rows`` / ``columns`` / ``column_parts()`` reader interface as
  :class:`~repro.storage.block.Block`, so the task kernels in
  ``repro.exec.kernels_tasks`` run unchanged in either process.  Every
  column view is built over a **read-only** memoryview of the segment: a
  worker can read a block but cannot change it in place (a write raises
  ``ValueError`` at the write site, and the flag cannot be flipped back),
  exactly like the mmap tier's read-only ``np.memmap`` arrays.

Lifecycle: the parent owns every segment (create + unlink); workers only
ever attach and detach.  ``SharedBlockStore.close()`` unlinks everything
and is additionally registered via ``atexit`` so segments cannot outlive
the session even on abnormal teardown (a crashed worker never owns a
segment, so it can leak nothing).
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .table import StoredTable

#: Column start offsets are aligned so every numpy view is itemsize-aligned.
_ALIGN = 16


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


# --------------------------------------------------------------------- #
# Picklable catalog records (these ride in task payloads, so they hold
# names, offsets and dtypes only — never a live Block or StoredTable)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnSpec:
    """Where one block column lives inside a pinned segment."""

    name: str
    offset: int
    dtype: str
    length: int


@dataclass(frozen=True)
class BlockSpec:
    """One block's layout inside a pinned segment."""

    block_id: int
    num_rows: int
    columns: tuple[ColumnSpec, ...]


@dataclass(frozen=True)
class TablePin:
    """A pinned table: segment name plus the per-block column catalog.

    The pin is what crosses the process boundary — it is a plain picklable
    record.  ``epoch`` is the table's partition-state epoch at pin time;
    the parent guarantees a pin is only shipped while it is current.
    """

    table: str
    epoch: int
    segment: str
    size_bytes: int
    blocks: dict[int, BlockSpec]

    def block(self, block_id: int) -> BlockSpec:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise StorageError(
                f"block {block_id} is not pinned for table {self.table!r}"
            ) from None


# --------------------------------------------------------------------- #
# Worker-side read view
# --------------------------------------------------------------------- #
class SharedBlockView:
    """Read-only view of one pinned block, mimicking the Block reader API.

    Exposes exactly the surface the task kernels consume: ``num_rows``,
    ``columns`` and ``column_parts()``.  The arrays are zero-copy views
    into the shared segment and are read-only.
    """

    __slots__ = ("block_id", "num_rows", "_columns")

    def __init__(self, block_id: int, num_rows: int, columns: dict[str, np.ndarray]) -> None:
        self.block_id = block_id
        self.num_rows = num_rows
        self._columns = columns

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return self._columns

    def column_parts(self) -> list[dict[str, np.ndarray]]:
        if self.num_rows == 0:
            return []
        return [self._columns]


def _views_of(buffer: memoryview, spec: BlockSpec) -> dict[str, np.ndarray]:
    """Column views of one block over a segment's read-only ``buffer``.

    numpy takes writability from the buffer, so the views are read-only
    and ``setflags(write=True)`` on them raises.
    """
    columns: dict[str, np.ndarray] = {}
    for col in spec.columns:
        if col.length == 0:
            columns[col.name] = np.empty(0, dtype=np.dtype(col.dtype))
        else:
            columns[col.name] = np.frombuffer(
                buffer, dtype=np.dtype(col.dtype), count=col.length, offset=col.offset
            )
    return columns


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

    Keyed by table name; a pin with a new segment name (the parent only
    re-pins on an epoch bump) evicts and detaches the stale attachment, so
    a worker never reads rows from before a repartition.  Attachments are
    untracked (see :func:`_attach_untracked`) — the parent owns cleanup.
    """

    def __init__(self) -> None:
        self._attached: dict[str, _Attachment] = {}

    def get_blocks(self, pin: TablePin, block_ids: list[int]) -> list[SharedBlockView]:
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
            view = entry.views.get(block_id)
            if view is None:
                spec = pin.block(block_id)
                view = SharedBlockView(
                    block_id, spec.num_rows, _views_of(entry.readonly, spec)
                )
                entry.views[block_id] = view
            result.append(view)
        return result

    def _detach(self, entry: _Attachment) -> None:
        for view in entry.views.values():
            view._columns = {}
        entry.views.clear()
        # The read-only buffer is a second handle on the mapping: release
        # it first or close() could never unmap the stale segment.
        entry.readonly.release()
        try:
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
class SharedBlockStore:
    """Pins tables' consolidated block columns into shared-memory segments.

    One segment per table per pin; segments use auto-generated names (short
    enough for macOS's 31-character POSIX limit).  The store is the sole
    owner: it closes **and unlinks** segments on unpin/close, and registers
    an ``atexit`` hook so a dropped store cannot leak segments.
    """

    def __init__(self) -> None:
        self._pins: dict[str, tuple[TablePin, shared_memory.SharedMemory]] = {}
        self._atexit = atexit.register(self.close)

    # -------------------------------------------------------------- #
    # Pinning
    # -------------------------------------------------------------- #
    def pin_table(self, table: "StoredTable") -> TablePin:
        """Pin ``table``'s blocks, reusing a current pin when the epoch matches.

        A stale pin (the table's epoch moved since pinning — e.g. a
        repartition or Amoeba re-split happened) is unlinked and rebuilt.
        """
        existing = self._pins.get(table.name)
        if existing is not None:
            if existing[0].epoch == table.epoch:
                return existing[0]
            self.unpin_table(table.name)
        pin = self._build_pin(table)
        return pin

    def _build_pin(self, table: "StoredTable") -> TablePin:
        block_ids = table.block_ids()
        layouts: dict[int, list[tuple[str, int, str, int, np.ndarray]]] = {}
        num_rows: dict[int, int] = {}
        offset = 0
        for block_id in block_ids:
            block = table.dfs.peek_block(block_id)
            num_rows[block_id] = block.num_rows
            cols: list[tuple[str, int, str, int, np.ndarray]] = []
            # .columns consolidates pending chunks → contiguous arrays.
            for name, array in block.columns.items():
                array = np.ascontiguousarray(array)
                offset = _aligned(offset)
                cols.append((name, offset, array.dtype.str, len(array), array))
                offset += array.nbytes
            layouts[block_id] = cols
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            blocks: dict[int, BlockSpec] = {}
            for block_id in block_ids:
                specs: list[ColumnSpec] = []
                for name, col_offset, dtype, length, array in layouts[block_id]:
                    if length:
                        target = np.frombuffer(
                            shm.buf, dtype=np.dtype(dtype), count=length, offset=col_offset
                        )
                        target[:] = array
                        del target  # drop the exported view before any close()
                    specs.append(ColumnSpec(name, col_offset, dtype, length))
                blocks[block_id] = BlockSpec(block_id, num_rows[block_id], tuple(specs))
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        pin = TablePin(
            table=table.name,
            epoch=table.epoch,
            segment=shm.name,
            size_bytes=max(offset, 1),
            blocks=blocks,
        )
        self._pins[table.name] = (pin, shm)
        return pin

    def current_pin(self, table_name: str) -> TablePin | None:
        """The live pin for ``table_name`` (no epoch check), or ``None``."""
        entry = self._pins.get(table_name)
        return entry[0] if entry else None

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def unpin_table(self, table_name: str) -> None:
        """Unlink a table's segment; a no-op if the table is not pinned."""
        entry = self._pins.pop(table_name, None)
        if entry is None:
            return
        _, shm = entry
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every pinned segment.  Idempotent."""
        for table_name in list(self._pins):
            self.unpin_table(table_name)

    @property
    def pinned_tables(self) -> list[str]:
        return sorted(self._pins)

    @property
    def pinned_bytes(self) -> int:
        return sum(pin.size_bytes for pin, _ in self._pins.values())
