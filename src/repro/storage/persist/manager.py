"""Checkpoint/restore orchestration of one persistent storage root.

A :class:`PersistenceManager` bundles the three pieces of the durable tier
— the WAL-mode :class:`~repro.storage.persist.catalog.PersistentCatalog`,
the mmap :class:`~repro.storage.persist.store.PersistentBlockStore` and the
byte-budgeted :class:`~repro.storage.persist.buffer.BlockBuffer` — and
owns the two lifecycle transitions:

``checkpoint``
    Two-phase: (1) spill every dirty block to a fresh on-disk version,
    then (2) commit *one* catalog transaction rewriting all metadata
    (config, RNG states, per-table epochs + delta chains, serialized
    trees, block rows + placement, samples, the adaptation window).  A
    crash anywhere before the commit leaves the catalog at the previous
    checkpoint; the stranded spill files are garbage-collected on the
    next open.  After the commit the freshly referenced versions become
    durable and superseded version files are removed.

``restore``
    Rebuilds a session's partition state from the last committed
    checkpoint: blocks come back as *cold* (unloaded) :class:`Block`\\ s
    whose columns fault in through the buffer on first read, tables are
    reconstructed with their exact epoch counters and delta chains (so
    plan-cache keys and ``delta_between`` spans carry across the
    restart), and the session / DFS / repartitioner RNG states and the
    query window are restored so post-restart adaptation decisions are
    bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ...common.epochs import PartitionDelta
from ...common.errors import StorageError
from ..block import Block
from ..table import StoredTable
from .buffer import BlockBuffer
from .catalog import PersistentCatalog
from .serialize import (
    FORMAT_VERSION,
    query_from_payload,
    query_to_payload,
    restore_rng_state,
    rng_state_payload,
    schema_from_payload,
    schema_to_payload,
    tree_from_payload,
    tree_to_payload,
)
from .store import PersistentBlockStore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a
    # storage -> api import cycle; the manager only duck-types the session)
    from ...api.session import Session


class PersistenceManager:
    """The durable tier of one session: catalog + spill store + buffer."""

    def __init__(
        self,
        root: Path,
        num_machines: int,
        buffer_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.catalog = PersistentCatalog(self.root)
        self.store = PersistentBlockStore(self.root, num_machines)
        self.buffer = BlockBuffer(self.store, budget_bytes=buffer_bytes)

    # ------------------------------------------------------------------ #
    # Lifecycle entry points
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, root: Path, num_machines: int, buffer_bytes: int | None = None
    ) -> "PersistenceManager":
        """Open a storage root for a *fresh* session.

        Raises:
            StorageError: if the root already holds a checkpoint — reusing
                it would collide block ids and spill files; such roots are
                resumed with ``Session.open`` instead.
        """
        manager = cls(root, num_machines, buffer_bytes)
        if manager.catalog.has_checkpoint():
            raise StorageError(
                f"storage root {str(root)!r} already holds a checkpointed "
                "catalog; resume it with Session.open(storage_root) instead "
                "of creating a fresh session over it"
            )
        return manager

    @classmethod
    def open(cls, root: Path) -> "PersistenceManager":
        """Open a storage root holding a committed checkpoint for restore.

        Raises:
            StorageError: if the root holds no catalog, or its checkpoint
                was written in another ``FORMAT_VERSION`` (there is no
                migration; the root's files are left untouched).
        """
        root = Path(root)
        if not (root / "catalog.sqlite").exists():
            raise StorageError(f"storage root {str(root)!r} holds no catalog")
        # Opening the connection replays any WAL a crashed writer left.
        probe = PersistentCatalog(root)
        try:
            stored_version = probe.require_meta("format_version")
            if stored_version != FORMAT_VERSION:
                raise StorageError(
                    f"storage root {str(root)!r} was checkpointed in format "
                    f"version {stored_version}; this library reads version "
                    f"{FORMAT_VERSION}"
                )
            config_payload = probe.require_meta("config")
            num_machines = int(config_payload["num_machines"])
            buffer_bytes = config_payload.get("buffer_bytes")
        finally:
            probe.close()
        return cls(root, num_machines, buffer_bytes)

    def stored_config_payload(self) -> dict[str, Any]:
        """The config dict committed by the last checkpoint."""
        payload = self.catalog.require_meta("config")
        return dict(payload)

    def attach(self, dfs: Any) -> None:
        """Route the DFS's reads and block lifecycle through this tier."""
        dfs.block_store = self.store
        dfs.buffer = self.buffer
        self.buffer.dfs = dfs

    def close(self) -> None:
        """Release the catalog connection and unmap every resident spill
        file (idempotent; unmapped blocks fault back in if read again)."""
        self.buffer.release()
        self.catalog.close()

    # ------------------------------------------------------------------ #
    # Checkpoint
    # ------------------------------------------------------------------ #
    def checkpoint(self, session: "Session") -> dict[str, int]:
        """Persist the session's full partition state; returns counters.

        Phase 1 spills every dirty block (new on-disk versions, catalog
        untouched); phase 2 commits one transaction describing exactly
        those versions.  Only after the commit are superseded and stranded
        version files removed.

        Raises:
            StorageError: if the session was closed — checked before phase
                1, so nothing is written under the root.
        """
        if self.catalog.closed:
            raise StorageError(
                f"cannot checkpoint storage root {str(self.root)!r}: the "
                "session is closed (its catalog connection was released)"
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
        """Phase 2: the single metadata transaction (the crash test's seam)."""
        dfs = session.dfs
        meta_rows = [
            ("format_version", json.dumps(FORMAT_VERSION)),
            ("config", json.dumps(dataclasses.asdict(session.config))),
            ("next_block_id", json.dumps(dfs.next_block_id)),
            ("rng", json.dumps({
                "session": rng_state_payload(session.rng),
                "dfs": rng_state_payload(dfs.rng),
                "repartitioner": rng_state_payload(session.repartitioner.rng),
            })),
        ]
        with self.catalog.transaction() as cur:
            for stale in ("tables", "trees", "blocks", "samples", "window"):
                cur.execute(f"DELETE FROM {stale}")  # noqa: S608 - fixed names
            cur.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", meta_rows
            )
            for table in tables:
                payload = {
                    "schema": schema_to_payload(table.schema),
                    "rows_per_block": table.rows_per_block,
                    "epoch": table.epoch,
                    "next_tree_id": table._next_tree_id,
                    "delta_chain_limit": table.delta_chain_limit,
                    "delta_chain": [
                        [epoch, _delta_to_payload(delta)]
                        for epoch, delta in table._delta_chain
                    ],
                    "total_rows": table.total_rows,
                }
                cur.execute(
                    "INSERT INTO tables (name, payload) VALUES (?, ?)",
                    (table.name, json.dumps(payload)),
                )
                for tree_id in sorted(table.trees):
                    cur.execute(
                        "INSERT INTO trees (table_name, tree_id, payload) VALUES (?, ?, ?)",
                        (table.name, tree_id, json.dumps(tree_to_payload(table.trees[tree_id]))),
                    )
                for block_id in table.block_ids():
                    block = dfs.peek_block(block_id)
                    block_payload = {
                        "ranges": {name: [lo, hi] for name, (lo, hi) in block.ranges.items()},
                        "placement": dfs.replicas_of(block_id),
                    }
                    cur.execute(
                        "INSERT INTO blocks (block_id, table_name, tree_id, num_rows,"
                        " size_bytes, version, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            block_id,
                            table.name,
                            table.tree_of_block(block_id),
                            block.num_rows,
                            block.size_bytes,
                            self.store.live_version(block_id),
                            json.dumps(block_payload),
                        ),
                    )
                for column_name in sorted(table.sample):
                    array = np.ascontiguousarray(table.sample[column_name])
                    cur.execute(
                        "INSERT INTO samples (table_name, column_name, dtype, data)"
                        " VALUES (?, ?, ?, ?)",
                        (table.name, column_name, array.dtype.str,
                         sqlite_blob(array.tobytes())),
                    )
            for position, query in enumerate(session.repartitioner.window.queries):
                cur.execute(
                    "INSERT INTO window (position, payload) VALUES (?, ?)",
                    (position, json.dumps(query_to_payload(query))),
                )

    # ------------------------------------------------------------------ #
    # Restore
    # ------------------------------------------------------------------ #
    def restore(self, session: "Session") -> None:
        """Rebuild ``session``'s state from the last committed checkpoint.

        The session arrives freshly constructed (empty DFS and catalog);
        blocks are re-registered cold, tables are reconstructed at their
        checkpointed epochs, RNG states and the adaptation window are
        restored, and only then is the DFS attached to the buffer/store so
        the restore itself never counts as buffer traffic.
        """
        catalog = self.catalog
        dfs = session.dfs
        block_rows = catalog.block_rows()

        # Adopt placement/version maps first so stranded (uncommitted)
        # spill versions from a crashed writer are collected before any
        # loader can observe them.
        for block_id, _table, _tree, _rows, _size, version, payload in block_rows:
            self.store.adopt_block(block_id, payload["placement"][0], version)
        self.store.mark_durable()
        self.store.gc()

        table_blocks: dict[str, list[tuple[int, int, int]]] = {}
        for block_id, table_name, tree_id, num_rows, size_bytes, version, payload in block_rows:
            ranges = {name: (lo, hi) for name, (lo, hi) in payload["ranges"].items()}
            block = Block.restore(
                block_id=block_id,
                table=table_name,
                ranges=ranges,
                size_bytes=size_bytes,
                num_rows=num_rows,
            )
            self.buffer.bind(block, self.store.loader(block_id, version))
            dfs.put_block(block, machine_ids=payload["placement"])
            table_blocks.setdefault(table_name, []).append((block_id, tree_id, num_rows))
        dfs.restore_block_counter(int(catalog.require_meta("next_block_id")))

        for name, payload in catalog.table_payloads():
            trees = {
                tree_id: tree_from_payload(tree_payload)
                for tree_id, tree_payload in catalog.tree_payloads(name)
            }
            rows_of = table_blocks.get(name, [])
            block_to_tree = {block_id: tree_id for block_id, tree_id, _ in rows_of}
            block_rows_map = {block_id: num_rows for block_id, _, num_rows in rows_of}
            tree_blocks: dict[int, list[int]] = {tree_id: [] for tree_id in trees}
            tree_rows: dict[int, int] = {tree_id: 0 for tree_id in trees}
            non_empty: dict[int, set[int]] = {tree_id: set() for tree_id in trees}
            for block_id, tree_id, num_rows in rows_of:
                tree_blocks[tree_id].append(block_id)
                tree_rows[tree_id] += num_rows
                if num_rows:
                    non_empty[tree_id].add(block_id)
            sample = {
                column: np.frombuffer(data, dtype=np.dtype(dtype_str)).copy()
                for column, dtype_str, data in catalog.sample_rows(name)
            }
            table = StoredTable(
                name=name,
                schema=schema_from_payload(payload["schema"]),
                dfs=dfs,
                trees=trees,
                sample=sample,
                rows_per_block=payload["rows_per_block"],
                _block_to_tree=block_to_tree,
                _next_tree_id=payload["next_tree_id"],
                _epoch=payload["epoch"],
                delta_chain_limit=payload["delta_chain_limit"],
                _delta_chain=[
                    (epoch, _delta_from_payload(delta_payload))
                    for epoch, delta_payload in payload["delta_chain"]
                ],
                _block_rows=block_rows_map,
                _tree_rows=tree_rows,
                _tree_blocks=tree_blocks,
                _non_empty=non_empty,
                _total_rows=payload["total_rows"],
            )
            session.catalog.register(table)

        rng_states = catalog.require_meta("rng")
        restore_rng_state(session.rng, rng_states["session"])
        restore_rng_state(dfs.rng, rng_states["dfs"])
        restore_rng_state(session.repartitioner.rng, rng_states["repartitioner"])
        for query_payload in catalog.window_payloads():
            session.repartitioner.window.add(query_from_payload(query_payload))

        self.attach(dfs)


def sqlite_blob(data: bytes) -> memoryview:
    """Wrap raw bytes for a BLOB parameter."""
    return memoryview(data)


def _delta_to_payload(delta: PartitionDelta) -> dict[str, Any]:
    """Change descriptor -> JSON (sorted lists; sets have no JSON form)."""
    return {
        "blocks_changed": sorted(delta.blocks_changed),
        "blocks_dropped": sorted(delta.blocks_dropped),
        "trees_resplit": sorted(delta.trees_resplit),
        "trees_added": sorted(delta.trees_added),
        "trees_dropped": sorted(delta.trees_dropped),
        "full": delta.full,
    }


def _delta_from_payload(payload: dict[str, Any]) -> PartitionDelta:
    """Inverse of :func:`_delta_to_payload`."""
    return PartitionDelta(
        blocks_changed=set(payload["blocks_changed"]),
        blocks_dropped=set(payload["blocks_dropped"]),
        trees_resplit=set(payload["trees_resplit"]),
        trees_added=set(payload["trees_added"]),
        trees_dropped=set(payload["trees_dropped"]),
        full=payload["full"],
    )
