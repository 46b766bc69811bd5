"""Memory-mapped spill files: one file per block version.

Layout under the storage root::

    checkpoint             # the metadata of the last committed checkpoint
    machine-00/
        block-000017-v3    # prefix + JSON header + 64-byte-aligned columns
        ...
    machine-01/
        ...

A version file is one file in the durable tier's checksummed format
(:mod:`repro.storage.persist.serialize`), ``num_rows`` in its header.  It
lives under the machine directory of the block's *primary replica* (the
first entry of its DFS placement), mirroring the paper's HDFS substrate
where a block has a home node.  Spills are **versioned**: every spill of a
block writes a fresh ``block-<id>-v<n>`` file (staged under a ``.tmp`` name
and renamed into place, so a half-written version is never picked up), and
the version the checkpoint references only advances when a checkpoint
commits.  Between checkpoints the *live* version
(what an eviction wrote) and the *durable* version (what the checkpoint
references) may differ; a crash simply strands the live version, and
:meth:`PersistentBlockStore.gc` unlinks every file the checkpoint does not
reference on the next open.

A fault takes the names of the columns a read lacks and returns
``np.frombuffer`` views of those columns only.  A version is mapped once
(read-only; the descriptor is closed at once) and the mapping is reused by
every later fault while any view of it is alive, so a block faulted column
by column holds one mapping, and a fully evicted one none.  Pages stream in
on demand and the OS may reclaim them under pressure, which is what lets a
working set larger than the buffer budget (or than RAM) execute at all.
The header CRC is checked on every fault; a column's CRC the first time
that column of that ``(block, version)`` is read per store instance, so
every column a reopened session reads is verified once before its rows are
used, and a column never read is never checked.  A missing, truncated or
corrupted file raises :class:`StorageError` naming the block, version and
path; nothing damaged is ever returned as data.  The views are read-only by
construction: block contents may only change through the epoch-bumped
mutation paths, which replace arrays rather than writing them in place.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import weakref
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ...common.errors import StorageError
from .serialize import ColumnLayout, column_layout, read_columns, read_header, write_file

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..block import Block, Loader

_VERSION_FILE = re.compile(r"^block-(\d+)-v(\d+)$")


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
        #: block id -> version the checkpoint currently references.
        self._durable: dict[int, int] = {}
        #: (block id, version) -> its column layout by name, and the names
        #: of the columns whose checksums verified.
        self._verified: dict[tuple[int, int], tuple[dict[str, ColumnLayout], set[str]]] = {}
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
        """Track a block restored from the checkpoint (its file already exists)."""
        self._machine[block_id] = machine_id
        self._live[block_id] = version
        self._durable[block_id] = version

    def forget_block(self, block_id: int) -> None:
        """Stop tracking a deleted block and unlink its *undurable* versions.

        The version the checkpoint still references is deliberately kept: until
        the next checkpoint commits, a crash must be able to roll back to
        the previous checkpoint — which includes this block.  The next
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
    def spill(self, block: "Block") -> "Loader":
        """Write ``block``'s consolidated columns as a new version on disk.

        Returns the loader for the freshly written version and marks the
        block clean with it.  A crash mid-write leaves only a ``.tmp`` file,
        which the fault path never picks up.
        """
        machine_id = self.machine_of(block.block_id)
        version = self._live.get(block.block_id, 0) + 1
        final = _version_file(self.root, machine_id, block.block_id, version)
        # ``block.columns`` consolidates pending chunks.
        written = write_file(final, {"num_rows": block.num_rows}, block.columns)

        self._live[block.block_id] = version
        self.spills += 1
        self.spilled_bytes += written
        loader = self.loader(block.block_id, version)
        block.mark_clean(loader)
        return loader

    def loader(self, block_id: int, version: int) -> "Loader":
        """A closure faulting named columns of one on-disk version in as
        read-only views of one shared mapping."""
        path = _version_file(self.root, self.machine_of(block_id), block_id, version)
        # The version's one mapping, while some view of it is alive.
        mapping: weakref.ref[mmap.mmap] | None = None

        def damaged(what: str) -> StorageError:
            return StorageError(
                f"spill file of block {block_id} v{version} at {str(path)!r} {what}"
            )

        def fault(names: list[str]) -> dict[str, np.ndarray]:
            nonlocal mapping
            mapped = mapping() if mapping is not None else None
            if mapped is None:
                try:
                    with open(path, "rb") as handle:
                        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except FileNotFoundError:
                    raise damaged("is missing") from None
                except ValueError:  # an empty file cannot be mapped
                    raise damaged("is empty") from None
                mapping = weakref.ref(mapped)
            header, data_start = read_header(mapped, damaged)
            # The parsed layout is kept with the names whose checksums passed.
            entry = self._verified.get((block_id, version))
            if entry is None:
                layout = column_layout(json.loads(header)["columns"], data_start)
                entry = {column[0]: column for column in layout}, set()
            by_name, verified = entry
            try:
                wanted = [by_name[name] for name in names]
            except KeyError as error:
                raise damaged(f"has no column {error.args[0]!r}") from None
            columns = read_columns(mapped, wanted, damaged, verified)
            verified.update(names)
            self._verified[(block_id, version)] = entry
            return columns

        return fault

    # ------------------------------------------------------------------ #
    # Checkpoint bookkeeping and garbage collection
    # ------------------------------------------------------------------ #
    def mark_durable(self) -> dict[int, int]:
        """Promote every live version to durable (a checkpoint just committed).

        Returns the block id -> version map the caller recorded.
        """
        self._durable = dict(self._live)
        return dict(self._durable)

    def gc(self) -> int:
        """Unlink every version file the durable map does not reference.

        Called after a successful checkpoint (dropping superseded versions)
        and on open (dropping versions stranded by a crash between spilling
        and the checkpoint commit).  Returns the number of files removed.
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
