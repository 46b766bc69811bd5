"""The durable catalog: a WAL-mode SQLite database next to the spill files.

The catalog is the commit point of the persistence tier.  It holds every
piece of metadata a restarted session needs — block metadata and placement,
per-table partition-state epochs and bounded delta chains, serialized
partitioning trees, retained samples, the adaptation window, RNG states and
the session config — while raw column bytes live in per-machine spill files
(:mod:`repro.storage.persist.store`).

Crash consistency is the write ordering: spill files are written *before*
the catalog transaction that references them commits, so a crash at any
point leaves the catalog describing the previous consistent state and at
worst some unreferenced spill files (garbage-collected on the next open).
WAL mode makes the commit itself atomic; SQLite replays a pending WAL
automatically when the database is next opened.

All catalog **mutations** go through :meth:`PersistentCatalog.transaction`
— one ``BEGIN IMMEDIATE``-to-``COMMIT`` span per logical update.  The
``catalog-transaction`` static rule (:mod:`repro.analysis.persist`)
rejects any bare write ``execute`` outside such a block, so a half-written
catalog state cannot be introduced by a future code path either.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ...common.errors import StorageError

#: The catalog's file name under the storage root.
CATALOG_FILENAME = "catalog.sqlite"

_SCHEMA_STATEMENTS = (
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS tables (
        name TEXT PRIMARY KEY,
        payload TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS trees (
        table_name TEXT NOT NULL,
        tree_id INTEGER NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (table_name, tree_id)
    )""",
    """CREATE TABLE IF NOT EXISTS blocks (
        block_id INTEGER PRIMARY KEY,
        table_name TEXT NOT NULL,
        tree_id INTEGER NOT NULL,
        num_rows INTEGER NOT NULL,
        size_bytes INTEGER NOT NULL,
        version INTEGER NOT NULL,
        payload TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS samples (
        table_name TEXT NOT NULL,
        column_name TEXT NOT NULL,
        dtype TEXT NOT NULL,
        data BLOB NOT NULL,
        PRIMARY KEY (table_name, column_name)
    )""",
    """CREATE TABLE IF NOT EXISTS window (
        position INTEGER PRIMARY KEY,
        payload TEXT NOT NULL
    )""",
)


class PersistentCatalog:
    """SQLite-backed metadata store of one storage root.

    The connection runs in WAL mode with ``synchronous=NORMAL`` (a commit
    is durable up to an OS crash, the standard WAL trade-off) and explicit
    transactions: the connection is opened in autocommit and every mutation
    span is an explicit ``BEGIN IMMEDIATE`` .. ``COMMIT`` issued by
    :meth:`transaction`.  Reads (``SELECT``) are safe outside transactions
    — they see the last committed state.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.path = self.root / CATALOG_FILENAME
        self.root.mkdir(parents=True, exist_ok=True)
        # isolation_level=None puts sqlite3 in autocommit so transaction()
        # controls the BEGIN/COMMIT span itself.  Connecting replays any WAL
        # left behind by a crashed writer before the first statement runs.
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            str(self.path), isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        with self.transaction() as cur:
            for statement in _SCHEMA_STATEMENTS:
                cur.execute(statement)

    # ------------------------------------------------------------------ #
    # The transactional write path
    # ------------------------------------------------------------------ #
    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Cursor]:
        """One atomic catalog update: commit on success, rollback on error.

        Every catalog mutation must run on the yielded cursor inside this
        context — the ``catalog-transaction`` static rule enforces it.
        """
        cursor = self._conn.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        try:
            yield cursor
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")
        finally:
            cursor.close()

    def close(self) -> None:
        """Close and forget the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the connection."""
        return self._conn is None

    # ------------------------------------------------------------------ #
    # Reads (always against the last committed state)
    # ------------------------------------------------------------------ #
    def get_meta(self, key: str) -> Any | None:
        """JSON-decoded ``meta`` value for ``key``, or ``None``."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def require_meta(self, key: str) -> Any:
        """Like :meth:`get_meta` but raises when the key is absent."""
        value = self.get_meta(key)
        if value is None:
            raise StorageError(
                f"storage root {str(self.root)!r} holds no {key!r} metadata; "
                "was it ever checkpointed?"
            )
        return value

    def table_payloads(self) -> list[tuple[str, dict[str, Any]]]:
        """``(name, payload)`` for every table, sorted by name."""
        rows = self._conn.execute(
            "SELECT name, payload FROM tables ORDER BY name"
        ).fetchall()
        return [(name, json.loads(payload)) for name, payload in rows]

    def tree_payloads(self, table_name: str) -> list[tuple[int, dict[str, Any]]]:
        """``(tree_id, payload)`` for one table, sorted by tree id."""
        rows = self._conn.execute(
            "SELECT tree_id, payload FROM trees WHERE table_name = ? ORDER BY tree_id",
            (table_name,),
        ).fetchall()
        return [(tree_id, json.loads(payload)) for tree_id, payload in rows]

    def block_rows(self) -> list[tuple[int, str, int, int, int, int, dict[str, Any]]]:
        """Every block row, sorted by block id (restore iterates in id order
        so every rebuilt dict carries the same deterministic ordering the
        original session had)."""
        rows = self._conn.execute(
            "SELECT block_id, table_name, tree_id, num_rows, size_bytes, version, payload"
            " FROM blocks ORDER BY block_id"
        ).fetchall()
        return [
            (block_id, table_name, tree_id, num_rows, size_bytes, version,
             json.loads(payload))
            for block_id, table_name, tree_id, num_rows, size_bytes, version, payload
            in rows
        ]

    def durable_versions(self) -> dict[int, int]:
        """block id -> committed spill-file version."""
        rows = self._conn.execute("SELECT block_id, version FROM blocks").fetchall()
        return {block_id: version for block_id, version in rows}

    def sample_rows(self, table_name: str) -> list[tuple[str, str, bytes]]:
        """``(column, dtype, raw bytes)`` of a table's retained sample."""
        return self._conn.execute(
            "SELECT column_name, dtype, data FROM samples WHERE table_name = ?"
            " ORDER BY rowid",
            (table_name,),
        ).fetchall()

    def window_payloads(self) -> list[dict[str, Any]]:
        """Serialized window queries, oldest first."""
        rows = self._conn.execute(
            "SELECT payload FROM window ORDER BY position"
        ).fetchall()
        return [json.loads(payload) for (payload,) in rows]

    def has_checkpoint(self) -> bool:
        """Whether this catalog ever committed a checkpoint."""
        return self.get_meta("config") is not None
