"""Checkpoint/restore orchestration of one persistent storage root.

A :class:`PersistenceManager` bundles the mmap
:class:`~repro.storage.persist.store.PersistentBlockStore`, the
byte-budgeted :class:`~repro.storage.persist.buffer.BlockBuffer` and the
root's one metadata file, ``<root>/checkpoint``, and owns the two
lifecycle transitions:

``checkpoint``
    Two-phase: (1) spill every dirty block to a fresh on-disk version,
    then (2) write *one* file in the spill files' checksummed format — all
    metadata in its header, the retained samples as its columns — and
    rename it into place.  The rename is the commit: a crash before it
    leaves the previous checkpoint in force (stranded spill files are
    collected on the next open, a staging file is ignored).  After it,
    superseded version files are removed.  Nothing is fsynced: the commit
    is atomic against a process crash, and a checkpoint torn by an OS
    crash fails its checksum on open.

``restore``
    Rebuilds a session's partition state from the checkpoint ``open``
    read and verified: blocks come back as *cold* (unloaded)
    :class:`Block`\\ s whose columns fault in through the buffer on first
    read, tables are reconstructed with their exact epoch counters and
    each block's change stamp (so plan-cache keys and the answers of
    ``StoredTable.changed_since`` carry across the restart), and the session /
    DFS / repartitioner RNG states and the query window are restored so post-restart adaptation
    decisions are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ...common.errors import StorageError
from ..block import Block
from ..table import StoredTable
from .buffer import BlockBuffer
from .serialize import (
    FORMAT_VERSION,
    column_layout,
    query_from_payload,
    query_to_payload,
    read_columns,
    read_header,
    restore_rng_state,
    rng_state_payload,
    schema_from_payload,
    schema_to_payload,
    tree_from_payload,
    tree_to_payload,
    write_file,
)
from .store import PersistentBlockStore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a
    # storage -> api import cycle; the manager only duck-types the session)
    from ...api.session import Session

#: The checkpoint's file name under the storage root.
CHECKPOINT_FILENAME = "checkpoint"

#: A parsed checkpoint: its JSON header and its sample columns.
Checkpoint = tuple[dict[str, Any], dict[str, np.ndarray]]


def read_checkpoint(root: Path) -> Checkpoint:
    """Read and verify ``<root>/checkpoint``: its header (without the column
    layout) and its sample columns.

    Raises:
        StorageError: naming the root and what is wrong, if the file is
            missing, truncated or fails a checksum.
    """
    path = Path(root) / CHECKPOINT_FILENAME

    def damaged(what: str) -> StorageError:
        return StorageError(
            f"checkpoint of storage root {str(root)!r} at {str(path)!r} {what}"
        )

    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise damaged("is missing") from None
    header_bytes, data_start = read_header(data, damaged)
    header = json.loads(header_bytes)
    layout = column_layout(header.pop("columns"), data_start)
    return header, read_columns(data, layout, damaged)


def _sample_column(table_name: str, column_name: str) -> str:
    """The checkpoint's column name of one retained sample column."""
    return json.dumps([table_name, column_name])


class PersistenceManager:
    """The durable tier of one session: spill store + buffer + checkpoint."""

    def __init__(
        self,
        root: Path,
        num_machines: int,
        buffer_bytes: int | None = None,
        restored: Checkpoint | None = None,
    ) -> None:
        self.root = Path(root)
        self.store = PersistentBlockStore(self.root, num_machines)
        self.buffer = BlockBuffer(self.store, budget_bytes=buffer_bytes)
        #: The checkpoint :meth:`open` verified, until :meth:`restore` uses it.
        self._restored = restored
        self.closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle entry points
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, root: Path, num_machines: int, buffer_bytes: int | None = None
    ) -> "PersistenceManager":
        """Open a storage root for a *fresh* session.

        Raises:
            StorageError: if the root already holds a file of its own (a
                checkpoint, a staging file, the metadata of an older format) —
                reusing it would collide block ids and spill files; such
                roots are resumed with ``Session.open`` instead.
        """
        root = Path(root)
        held = sorted(e.name for e in root.iterdir() if e.is_file()) if root.is_dir() else []
        if held:
            raise StorageError(
                f"storage root {str(root)!r} already holds a checkpointed state "
                f"({', '.join(held)}); resume it with Session.open(storage_root) "
                "instead of creating a fresh session over it"
            )
        return cls(root, num_machines, buffer_bytes)

    @classmethod
    def open(cls, root: Path) -> "PersistenceManager":
        """Read and verify a storage root's checkpoint for restore.

        Nothing is written under the root before the checkpoint verified.

        Raises:
            StorageError: naming the root, if its checkpoint is missing or
                damaged, or was written in another ``FORMAT_VERSION``
                (there is no migration; the root's files are left
                untouched).
        """
        root = Path(root)
        checkpoint = read_checkpoint(root)
        header = checkpoint[0]
        stored_version = header.get("format_version")
        if stored_version != FORMAT_VERSION:
            raise StorageError(
                f"storage root {str(root)!r} was checkpointed in format "
                f"version {stored_version}; this library reads version "
                f"{FORMAT_VERSION}"
            )
        config = header["config"]
        return cls(root, int(config["num_machines"]), config.get("buffer_bytes"), checkpoint)

    def stored_config_payload(self) -> dict[str, Any]:
        """The config dict of the checkpoint :meth:`open` read."""
        return dict(self._restored[0]["config"])

    def attach(self, dfs: Any) -> None:
        """Route the DFS's reads and block lifecycle through this tier."""
        dfs.block_store = self.store
        dfs.buffer = self.buffer
        self.buffer.dfs = dfs

    def close(self) -> None:
        """Unmap every resident spill file and refuse further checkpoints
        (idempotent; unmapped blocks fault back in if read again).

        The buffer also lets go of the DFS, the one back-reference of the
        ``dfs.buffer`` wiring, so a closed session is freed by reference
        counting; a closed session's reads stop counting buffer traffic in
        ``dfs.read_stats``.
        """
        self.buffer.release()
        self.buffer.dfs = None
        self.closed = True

    # ------------------------------------------------------------------ #
    # Checkpoint
    # ------------------------------------------------------------------ #
    def checkpoint(self, session: "Session") -> dict[str, int]:
        """Persist the session's full partition state; returns counters.

        Phase 1 spills every dirty block (new on-disk versions, checkpoint
        untouched); phase 2 renames one checkpoint file describing exactly
        those versions into place.  Only after the rename are superseded
        and stranded version files removed.

        Raises:
            StorageError: if the session was closed — checked before phase
                1, so nothing is written under the root.
        """
        if self.closed:
            raise StorageError(
                f"cannot checkpoint storage root {str(self.root)!r}: the "
                "session is closed"
            )
        dfs = session.dfs
        tables = session.catalog.tables()
        spilled = 0
        for table in tables:
            for block_id in table.block_ids():
                block = dfs.peek_block(block_id)
                if block.dirty:
                    self.buffer.bind(block, self.store.spill(block))
                    spilled += 1

        self._commit_checkpoint(session, tables)

        self.store.mark_durable()
        removed = self.store.gc()
        return {"blocks_spilled": spilled, "versions_removed": removed}

    def _commit_checkpoint(self, session: "Session", tables: list[StoredTable]) -> None:
        """Phase 2: write the checkpoint file and rename it into place (the
        crash test's seam).  Tables are stored by name, trees by id."""
        dfs = session.dfs
        table_payloads = []
        samples: dict[str, np.ndarray] = {}
        for table in sorted(tables, key=lambda table: table.name):
            blocks = []
            for block_id in table.block_ids():
                block = dfs.peek_block(block_id)
                blocks.append({
                    "id": block_id,
                    "rows": block.num_rows,
                    "bytes": block.size_bytes,
                    "version": self.store.live_version(block_id),
                    "written_at": table._written_at[block_id],
                    "ranges": {name: [lo, hi] for name, (lo, hi) in block.ranges.items()},
                    "placement": dfs.replicas_of(block_id),
                })
            table_payloads.append({
                "name": table.name,
                "schema": schema_to_payload(table.schema),
                "rows_per_block": table.rows_per_block,
                "epoch": table.epoch,
                "next_tree_id": table._next_tree_id,
                "trees": [
                    [tree_id, tree_to_payload(table.trees[tree_id])]
                    for tree_id in sorted(table.trees)
                ],
                "blocks": blocks,
                "sample": sorted(table.sample),
            })
            for column_name in sorted(table.sample):
                samples[_sample_column(table.name, column_name)] = table.sample[column_name]
        header = {
            "format_version": FORMAT_VERSION,
            "config": dataclasses.asdict(session.config),
            "next_block_id": dfs.next_block_id,
            "rng": {
                "session": rng_state_payload(session.rng),
                "dfs": rng_state_payload(dfs.rng),
                "repartitioner": rng_state_payload(session.repartitioner.rng),
            },
            "tables": table_payloads,
            "window": [query_to_payload(q) for q in session.repartitioner.window.queries],
        }
        write_file(self.root / CHECKPOINT_FILENAME, header, samples)

    # ------------------------------------------------------------------ #
    # Restore
    # ------------------------------------------------------------------ #
    def restore(self, session: "Session") -> None:
        """Rebuild ``session``'s state from the checkpoint :meth:`open` read.

        The session arrives freshly constructed (empty DFS and catalog);
        blocks are re-registered cold in id order, tables are constructed
        from their trees at their checkpointed epochs in name order (a
        tree's leaves say which blocks it holds), RNG states and the
        adaptation window are restored, and only then is the DFS attached
        to the buffer/store so the restore itself never counts as buffer
        traffic.
        """
        header, samples = self._restored
        self._restored = None
        dfs = session.dfs
        blocks = sorted(
            ((table["name"], block) for table in header["tables"] for block in table["blocks"]),
            key=lambda entry: entry[1]["id"],
        )

        # Adopt placement/version maps first so stranded (uncommitted)
        # spill versions from a crashed writer are collected before any
        # loader can observe them.
        for _table, block in blocks:
            self.store.adopt_block(block["id"], block["placement"][0], block["version"])
        self.store.mark_durable()
        self.store.gc()

        written_at: dict[str, dict[int, int]] = {}
        # Every block of a table holds exactly its schema's columns.
        column_names = {
            table["name"]: [name for name, _ in table["schema"]] for table in header["tables"]
        }
        for table_name, entry in blocks:
            block_id = entry["id"]
            block = Block.restore(
                block_id=block_id,
                table=table_name,
                ranges={name: (lo, hi) for name, (lo, hi) in entry["ranges"].items()},
                size_bytes=entry["bytes"],
                num_rows=entry["rows"],
                column_names=column_names[table_name],
            )
            self.buffer.bind(block, self.store.loader(block_id, entry["version"]))
            dfs.put_block(block, machine_ids=entry["placement"])
            written_at.setdefault(table_name, {})[block_id] = entry["written_at"]
        dfs.restore_block_counter(int(header["next_block_id"]))

        for payload in header["tables"]:
            name = payload["name"]
            session.catalog.register(StoredTable(
                name=name,
                schema=schema_from_payload(payload["schema"]),
                dfs=dfs,
                rows_per_block=payload["rows_per_block"],
                sample={
                    column: samples[_sample_column(name, column)].copy()
                    for column in payload["sample"]
                },
                trees={
                    tree_id: tree_from_payload(tree_payload)
                    for tree_id, tree_payload in payload["trees"]
                },
                epoch=payload["epoch"],
                next_tree_id=payload["next_tree_id"],
                written_at=written_at.get(name, {}),
            ))

        rng_states = header["rng"]
        restore_rng_state(session.rng, rng_states["session"])
        restore_rng_state(dfs.rng, rng_states["dfs"])
        restore_rng_state(session.repartitioner.rng, rng_states["repartitioner"])
        for query_payload in header["window"]:
            session.repartitioner.window.add(query_from_payload(query_payload))

        self.attach(dfs)

