"""Runtime sanitizer: opt-in cross-checks of the epoch and cache contracts.

``REPRO_SANITIZE=1`` (or :func:`set_sanitize`) turns on two cheap runtime
cross-checks, so one CI job runs the whole tier-1 suite with them
enforced:

* Every ``StoredTable.mutation()`` exit cross-checks that mutation's
  descriptor against the partition-state changes actually observed since
  the previous mutation's exit (:class:`PartitionStateSnapshot`) — a
  change the primitives did not record raises :class:`SanitizeError`
  naming the missing ids.  The primitives make under-description
  unwritable through the table's own API; this is the independent oracle
  for writes that go around them.
* Cache-serve paths assert their container copies do not alias the
  cached entry (:func:`assert_unaliased`, :func:`assert_no_shared_memory`)
  so a caller mutating a served plan can never poison the cache.

All checks are no-ops when the sanitizer is off; the hooks cost one
predicate call on hot paths.  The sanitizer never changes what a worker
process may do: attached shared-memory views are read-only in every mode
(:mod:`repro.storage.shared_memory`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .epochs import PartitionDelta
from .errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..storage.table import StoredTable

ENV_VAR = "REPRO_SANITIZE"

_override: bool | None = None


class SanitizeError(ReproError):
    """A runtime contract check failed under ``REPRO_SANITIZE=1``."""


def sanitize_enabled() -> bool:
    """Whether sanitizer checks are active (env var or explicit override)."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def set_sanitize(enabled: bool | None) -> None:
    """Force the sanitizer on/off (tests); ``None`` defers to the env var."""
    global _override
    _override = enabled


def assert_unaliased(served: object, cached: object, what: str) -> None:
    """Assert a served container is a copy of (not the same object as) the cached one.

    Recurses one level into dict values so ``{table: [ids]}`` copies are
    checked per key.  Element objects may be shared — only the mutable
    containers themselves must be fresh.
    """
    if not sanitize_enabled():
        return
    _assert_unaliased(served, cached, what)


def _assert_unaliased(served: object, cached: object, what: str) -> None:
    if not isinstance(cached, (list, dict, set)):
        return
    if served is cached:
        raise SanitizeError(
            f"{what}: served container aliases the cached entry; a caller "
            "mutating the served plan would poison the cache"
        )
    if isinstance(cached, dict) and isinstance(served, dict):
        for key, value in cached.items():
            if key in served:
                _assert_unaliased(served[key], value, f"{what}[{key!r}]")


def assert_no_shared_memory(
    fresh: np.ndarray, cached: np.ndarray, what: str
) -> None:
    """Assert a patched array does not share storage with the cached one."""
    if not sanitize_enabled():
        return
    if np.shares_memory(fresh, cached):
        raise SanitizeError(
            f"{what}: patched array shares memory with the cached entry; "
            "in-place patching would corrupt it"
        )


@dataclass
class PartitionStateSnapshot:
    """Observable partition state as of one mutation's exit (or a restore).

    Captured by ``StoredTable`` when the sanitizer is on and verified at
    the exit of the next mutation, against that mutation's descriptor.
    """

    block_rows: dict[int, int]
    tree_ids: frozenset[int]

    @classmethod
    def capture(cls, table: "StoredTable") -> "PartitionStateSnapshot":
        return cls(
            block_rows=dict(table._block_rows), tree_ids=frozenset(table.trees)
        )

    def verify(self, table: "StoredTable", delta: PartitionDelta) -> None:
        """Raise :class:`SanitizeError` if changes since this snapshot exceed ``delta``."""
        if delta.full:
            return
        described_blocks = delta.touched_blocks
        missing: list[str] = []
        observed_rows = table._block_rows
        for block_id, rows in observed_rows.items():
            if (
                self.block_rows.get(block_id) != rows
                and block_id not in described_blocks
            ):
                missing.append(f"block {block_id} rows changed")
        for block_id in self.block_rows:
            if block_id not in observed_rows and block_id not in described_blocks:
                missing.append(f"block {block_id} removed")
        observed_trees = frozenset(table.trees)
        for tree_id in sorted(observed_trees - self.tree_ids):
            if tree_id not in delta.trees_added:
                missing.append(f"tree {tree_id} added")
        for tree_id in sorted(self.tree_ids - observed_trees):
            if tree_id not in delta.trees_dropped:
                missing.append(f"tree {tree_id} removed")
        if missing:
            raise SanitizeError(
                f"table {table.name!r}: the mutation's PartitionDelta "
                "under-describes the changes observed at its exit: "
                + "; ".join(sorted(missing))
            )


__all__ = [
    "ENV_VAR",
    "PartitionStateSnapshot",
    "SanitizeError",
    "assert_no_shared_memory",
    "assert_unaliased",
    "sanitize_enabled",
    "set_sanitize",
]
