"""Memory-mapped spill files: one file per block version.

Layout under the storage root::

    catalog.sqlite
    machine-00/
        block-000017-v3    # prefix + JSON header + 64-byte-aligned columns
        ...
    machine-01/
        ...

A version file starts with a fixed prefix (magic, header length, header
CRC32), then a JSON header (``num_rows`` and ``[name, dtype, length, offset,
crc32]`` per column, offsets relative to the aligned end of the header), then
the raw little-endian column bytes.  It lives under the machine directory of
the block's *primary replica* (the first entry of its DFS placement),
mirroring the paper's HDFS substrate where a block has a home node.  Spills
are **versioned**: every spill of a block writes a fresh ``block-<id>-v<n>``
file (staged under a ``.tmp`` name and renamed into place, so a half-written
version is never picked up), and the version the catalog references only
advances when a checkpoint commits.  Between checkpoints the *live* version
(what an eviction wrote) and the *durable* version (what the catalog
references) may differ; a crash simply strands the live version, and
:meth:`PersistentBlockStore.gc` unlinks every file the catalog does not
reference on the next open.

A fault opens the file once, maps it once (read-only; the descriptor is
closed at once) and returns ``np.frombuffer`` views into the mapping — pages
stream in on demand and the OS may reclaim them under pressure, which is
what lets a working set larger than the buffer budget (or than RAM) execute
at all.  The header CRC is checked on every fault; the column CRCs on the
first fault of each ``(block, version)`` per store instance, so every version
a reopened session adopts is verified once before its rows are used.  A
missing, truncated or corrupted file raises :class:`StorageError` naming the
block, version and path; nothing damaged is ever returned as data.  The views
are read-only by construction: block contents may only change through the
epoch-bumped mutation paths, which replace arrays rather than writing them
in place.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ...common.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..block import Block

_VERSION_FILE = re.compile(r"^block-(\d+)-v(\d+)$")
#: File prefix: magic, header length, header CRC32.
_PREFIX = struct.Struct("<8sII")
_MAGIC = b"ADBSPILL"
_ALIGN = 64


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


def _machine_dir(root: Path, machine_id: int) -> Path:
    return root / f"machine-{machine_id:02d}"


def _version_file(root: Path, machine_id: int, block_id: int, version: int) -> Path:
    return _machine_dir(root, machine_id) / f"block-{block_id:06d}-v{version}"


class PersistentBlockStore:
    """Writes and faults one-file-per-version spill files for one storage root."""

    def __init__(self, root: Path, num_machines: int) -> None:
        self.root = Path(root)
        self.num_machines = num_machines
        for machine_id in range(num_machines):
            _machine_dir(self.root, machine_id).mkdir(parents=True, exist_ok=True)
        #: block id -> machine directory holding its files.
        self._machine: dict[int, int] = {}
        #: block id -> newest version written to disk (0 = never spilled).
        self._live: dict[int, int] = {}
        #: block id -> version the catalog currently references.
        self._durable: dict[int, int] = {}
        #: (block id, version) -> column layout, once its checksums verified.
        self._verified: dict[tuple[int, int], list[tuple[Any, ...]]] = {}
        #: Lifetime spill counters (bytes include only column payloads).
        self.spills = 0
        self.spilled_bytes = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_block(self, block_id: int, machine_id: int) -> None:
        """Track a freshly created block (nothing is written yet)."""
        self._machine[block_id] = machine_id
        self._live.setdefault(block_id, 0)

    def adopt_block(self, block_id: int, machine_id: int, version: int) -> None:
        """Track a block restored from the catalog (its file already exists)."""
        self._machine[block_id] = machine_id
        self._live[block_id] = version
        self._durable[block_id] = version

    def forget_block(self, block_id: int) -> None:
        """Stop tracking a deleted block and unlink its *undurable* versions.

        The version the catalog still references is deliberately kept: until
        the next checkpoint commits, a crash must be able to roll back to
        the previous catalog state — which includes this block.  The next
        post-commit :meth:`gc` (whose durable map no longer contains the
        block) removes the retained file.
        """
        live = self._live.pop(block_id, 0)
        machine_id = self._machine.get(block_id)
        if machine_id is None:
            return
        durable = self._durable.get(block_id)
        # A gc leaves only the durable version, so anything else is newer.
        for version in range((durable or 0) + 1, live + 1):
            _version_file(self.root, machine_id, block_id, version).unlink(missing_ok=True)
            self._verified.pop((block_id, version), None)
        if durable is None:
            self._machine.pop(block_id, None)

    def machine_of(self, block_id: int) -> int:
        """Machine directory a block spills to."""
        try:
            return self._machine[block_id]
        except KeyError:
            raise StorageError(f"block {block_id} is not registered with the store") from None

    def live_version(self, block_id: int) -> int:
        """Newest on-disk version of a block (0 when never spilled)."""
        return self._live.get(block_id, 0)

    # ------------------------------------------------------------------ #
    # Spilling
    # ------------------------------------------------------------------ #
    def spill(self, block: "Block") -> Callable[[], dict[str, np.ndarray]]:
        """Write ``block``'s consolidated columns as a new version on disk.

        Returns the loader for the freshly written version and marks the
        block clean with it.  The file is staged under a ``.tmp`` name and
        renamed into place so a crash mid-write never produces a file the
        fault path could pick up.
        """
        machine_id = self.machine_of(block.block_id)
        version = self._live.get(block.block_id, 0) + 1
        final = _version_file(self.root, machine_id, block.block_id, version)
        staging = final.with_name(final.name + ".tmp")

        columns = block.columns  # consolidates pending chunks
        arrays = [np.ascontiguousarray(array) for array in columns.values()]
        layout: list[list[Any]] = []
        end = 0
        for name, array in zip(columns, arrays):
            layout.append([name, array.dtype.str, len(array), end, zlib.crc32(array)])
            end = _aligned(end + array.nbytes)
        header = json.dumps({"num_rows": block.num_rows, "columns": layout}).encode()
        prefix = _PREFIX.pack(_MAGIC, len(header), zlib.crc32(header)) + header
        with open(staging, "wb") as out:
            out.write(prefix + bytes(-len(prefix) % _ALIGN))
            for array in arrays:
                out.write(array)  # straight from the array's buffer
                out.write(bytes(-array.nbytes % _ALIGN))
        os.replace(staging, final)

        self._live[block.block_id] = version
        self.spills += 1
        self.spilled_bytes += sum(array.nbytes for array in arrays)
        loader = self.loader(block.block_id, version)
        block.mark_clean(loader)
        return loader

    def loader(self, block_id: int, version: int) -> Callable[[], dict[str, np.ndarray]]:
        """A closure faulting one on-disk version back in as read-only views."""
        path = _version_file(self.root, self.machine_of(block_id), block_id, version)

        def damaged(what: str) -> StorageError:
            return StorageError(
                f"spill file of block {block_id} v{version} at {str(path)!r} {what}"
            )

        def fault() -> dict[str, np.ndarray]:
            try:
                with open(path, "rb") as handle:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except FileNotFoundError:
                raise damaged("is missing") from None
            except ValueError:  # an empty file cannot be mapped
                raise damaged("is empty") from None
            if len(mapped) < _PREFIX.size:
                raise damaged("is truncated")
            magic, header_size, header_crc = _PREFIX.unpack_from(mapped)
            header = mapped[_PREFIX.size : _PREFIX.size + header_size]
            if magic != _MAGIC or len(header) != header_size or zlib.crc32(header) != header_crc:
                raise damaged("has a damaged header")
            # The parsed layout is kept once its column checksums verified.
            layout = self._verified.get((block_id, version))
            verify = layout is None
            if layout is None:
                data_start = _aligned(_PREFIX.size + header_size)
                layout = [
                    (name, np.dtype(dtype_str), length, data_start + offset, crc)
                    for name, dtype_str, length, offset, crc in json.loads(header)["columns"]
                ]
            columns: dict[str, np.ndarray] = {}
            for name, dtype, length, offset, crc in layout:
                try:
                    column = np.frombuffer(mapped, dtype=dtype, count=length, offset=offset)
                except ValueError:
                    raise damaged(f"is truncated inside column {name!r}") from None
                if verify and zlib.crc32(column) != crc:
                    raise damaged(f"fails the checksum of column {name!r}")
                columns[name] = column
            self._verified[(block_id, version)] = layout
            return columns

        return fault

    # ------------------------------------------------------------------ #
    # Checkpoint bookkeeping and garbage collection
    # ------------------------------------------------------------------ #
    def mark_durable(self) -> dict[int, int]:
        """Promote every live version to durable (the catalog just committed).

        Returns the block id -> version map the caller recorded.
        """
        self._durable = dict(self._live)
        return dict(self._durable)

    def gc(self) -> int:
        """Unlink every version file the durable map does not reference.

        Called after a successful checkpoint (dropping superseded versions)
        and on open (dropping versions stranded by a crash between spilling
        and the catalog commit).  Returns the number of files removed.
        """
        removed = 0
        for machine_id in range(self.num_machines):
            machine_dir = _machine_dir(self.root, machine_id)
            if not machine_dir.is_dir():
                continue
            for entry in sorted(os.listdir(machine_dir)):
                match = _VERSION_FILE.match(entry.removesuffix(".tmp"))
                if match is None:
                    continue
                block_id, version = int(match.group(1)), int(match.group(2))
                keep = (
                    not entry.endswith(".tmp")
                    and self._durable.get(block_id) == version
                    and self._machine.get(block_id) == machine_id
                )
                if not keep:
                    (machine_dir / entry).unlink(missing_ok=True)
                    self._verified.pop((block_id, version), None)
                    removed += 1
        # Live state follows the disk: after a GC only durable versions remain
        # (plus registered-but-never-spilled blocks, which own no files).
        # Machine entries kept solely for a deleted block's retained durable
        # file are dropped along with it.
        self._machine = {
            block_id: machine_id
            for block_id, machine_id in self._machine.items()
            if block_id in self._live or block_id in self._durable
        }
        self._live = {
            block_id: self._durable.get(block_id, 0) for block_id in self._live
        } | dict(self._durable)
        return removed
