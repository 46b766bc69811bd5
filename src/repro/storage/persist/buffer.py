"""The byte-budgeted block buffer.

Every data read of a persistent session flows through one
:class:`BlockBuffer` sitting between the DFS and the spill store:

* ``DistributedFileSystem.get_block(s)`` calls :meth:`touch` — a resident
  block (one holding some column) counts a **hit** and refreshes its
  recency; a spilled block is left to fault lazily (below) so a batch read
  never materializes more than the consumer actually walks.
* A block's absent columns fault in through the loader the buffer bound to
  it (:meth:`bind`), only those a read names: each loader call is one
  **fault**, so a read of a resident block that lacks a named column counts
  a hit and a fault.  The block is (re)admitted at the MRU end, charged its
  ``resident_bytes`` — the bytes of its resident columns, not its
  ``size_bytes`` — and the budget is enforced by evicting: clean blocks
  just drop their in-memory columns, dirty blocks are spilled first (the
  spill's own faults of their absent columns count but charge nothing).  This
  also covers stragglers: a consumer holding a ``Block`` handle past an
  eviction transparently re-faults on its next column read.
* The victim is the resident block whose next *announced* use is farthest.
  The executor holds a query's whole reference string before it reads the
  first block and hands it to :meth:`announce`; blocks with no announced use
  go first, and recency breaks ties — so with nothing announced (loading,
  adaptation writes, a hint left stale by an exception) the policy is plain
  LRU.  The hint is advisory: it moves hit rates, never answers, and the
  next execution replaces it.
* ``peek_block`` never calls into the buffer at all — diagnostic peeks
  neither count as reads nor refresh recency, so metadata probes
  (planning, statistics audits) cannot perturb eviction order.  If a peek
  caller *does* read a spilled block's data, the lazy fault above still
  accounts the materialization — pages became resident, pretending
  otherwise would undercount.

Counters (hits / faults / evictions) accumulate on the buffer for the
lifetime sweeps of fig14 and are mirrored per execution into the DFS's
:class:`~repro.storage.dfs.ReadStats`, which ``Session.execute`` resets per
query and copies onto the ``QueryResult`` — excluded from fingerprints,
because buffer behaviour must never change query answers or plans.

``budget_bytes=None`` means unbounded: blocks stay resident and the buffer
only tracks recency and counters.  The budget is a *target*, not a hard
wall — a single block larger than the budget is still admitted (it must
be, to be read at all) and trimmed back on the next admission.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..block import Block, Loader
    from ..dfs import DistributedFileSystem
    from .store import PersistentBlockStore


class BlockBuffer:
    """Bounded pool of resident block copies over a spill store."""

    def __init__(
        self, store: "PersistentBlockStore", budget_bytes: int | None = None
    ) -> None:
        self.store = store
        self.budget_bytes = budget_bytes
        #: Resident block id -> charged bytes; dict order is recency (MRU last).
        self._resident: dict[int, int] = {}
        self._held: dict[int, "Block"] = {}
        self.resident_bytes = 0
        self.hits = 0
        self.faults = 0
        self.evictions = 0
        #: Set once the buffer is attached to a DFS; per-execution counter sink.
        self.dfs: "DistributedFileSystem | None" = None
        #: Announced future: block id -> positions of its uses not yet handed
        #: out by ``touch``, and the position of the use handed out last.
        self._uses: dict[int, deque[int]] = {}
        self._handed: dict[int, int] = {}
        #: Position the consumer has reached (that of the latest fault).
        self._now = -1
        #: The block whose faults count but charge nothing: one an eviction
        #: is writing back (it is leaving the pool), or one ``release``
        #: copies to the heap at close.
        self._uncharged: int | None = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind(self, block: "Block", raw_loader: "Loader") -> None:
        """Route ``block``'s future column faults through this buffer.

        The loader refers to the block and to the buffer weakly, so no block
        sits in a reference cycle through its own loader: a closed session
        is freed by reference counting, not by the cycle collector.
        """
        buffer, target = weakref.ref(self), weakref.ref(block)
        block.set_loader(lambda names: buffer()._fault(target(), raw_loader, names))

    def admit(self, block: "Block") -> None:
        """Charge a resident block (creation or restore-with-data) to the pool."""
        self._charge(block, block.resident_bytes)
        self._enforce_budget(exclude=block.block_id)

    def announce(self, block_ids: Iterable[int]) -> None:
        """Replace the eviction hint with the order blocks will be read in."""
        self._uses, self._handed, self._now = {}, {}, -1
        for position, block_id in enumerate(block_ids):
            self._uses.setdefault(block_id, deque()).append(position)

    # ------------------------------------------------------------------ #
    # The read path
    # ------------------------------------------------------------------ #
    def touch(self, block: "Block") -> None:
        """Account a DFS read: hit + refresh when resident, else defer to the
        lazy fault (the loader bound by :meth:`bind` counts it on first use).
        """
        uses = self._uses.get(block.block_id)
        if uses:
            self._handed[block.block_id] = uses.popleft()
        if block.block_id in self._resident:
            self.hits += 1
            if self.dfs is not None:
                self.dfs.read_stats.buffer_hits += 1
            # Refresh recency and recharge a grown block.
            self._charge(block, block.resident_bytes)

    def _fault(
        self, block: "Block", raw_loader: "Loader", names: list[str]
    ) -> dict[str, np.ndarray]:
        """Map ``names`` of a block's spilled columns in, (re)admitting the
        block to the pool charged with them."""
        columns = raw_loader(names)
        self.faults += 1
        if self.dfs is not None:
            self.dfs.read_stats.buffer_faults += 1
        if block.block_id == self._uncharged:
            return columns
        # A batch read hands out blocks ahead of the consumer; a fault is
        # where the consumer is known to be.
        self._now = max(self._now, self._handed.get(block.block_id, -1))
        # The block installs the columns when this returns: charge them now.
        faulted = sum(column.nbytes for column in columns.values())
        self._charge(block, block.resident_bytes + faulted)
        self._enforce_budget(exclude=block.block_id)
        return columns

    # ------------------------------------------------------------------ #
    # Residency accounting
    # ------------------------------------------------------------------ #
    def is_resident(self, block_id: int) -> bool:
        """Whether the buffer currently charges ``block_id`` as resident."""
        return block_id in self._resident

    def _charge(self, block: "Block", charge: int) -> None:
        """(Re)charge a block ``charge`` bytes and move it to the MRU end."""
        previous = self._resident.pop(block.block_id, 0)
        self._resident[block.block_id] = charge
        self._held[block.block_id] = block
        self.resident_bytes += charge - previous

    def _next_use(self, block_id: int) -> float:
        """Position of a block's next announced use (inf when there is none)."""
        handed = self._handed.get(block_id, -1)
        if handed > self._now:
            return handed  # handed out, not yet consumed
        uses = self._uses.get(block_id)
        return uses[0] if uses else float("inf")

    def _enforce_budget(self, exclude: int | None = None) -> None:
        """Evict the farthest-next-use block until the pool fits the budget.

        Candidates are walked LRU first and ``max`` keeps the first of equal
        keys, so recency breaks ties.  ``exclude`` protects the block being
        admitted right now — evicting it before its caller ever touched the
        data would thrash.
        """
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes:
            candidates = [block_id for block_id in self._resident if block_id != exclude]
            if not candidates:
                return
            self._evict(max(candidates, key=self._next_use))

    def _evict(self, block_id: int) -> None:
        charge = self._resident.pop(block_id)
        block = self._held.pop(block_id)
        self.resident_bytes -= charge
        if block.dirty:
            # Write-back: the spill faults the absent columns in and installs
            # a fresh buffer-bound loader for the new version before the
            # in-memory copy is dropped.
            self._uncharged = block_id
            try:
                self.bind(block, self.store.spill(block))
            finally:
                self._uncharged = None
        block.unload()
        self.evictions += 1
        if self.dfs is not None:
            self.dfs.read_stats.buffer_evictions += 1

    def discard(self, block_id: int) -> None:
        """Drop tracking for a deleted block (no spill, no eviction count)."""
        charge = self._resident.pop(block_id, None)
        self._held.pop(block_id, None)
        if charge is not None:
            self.resident_bytes -= charge

    # ------------------------------------------------------------------ #
    # Sweeping controls (fig14) and counters
    # ------------------------------------------------------------------ #
    def set_budget(self, budget_bytes: int | None) -> None:
        """Change the byte budget, evicting down to it immediately."""
        self.budget_bytes = budget_bytes
        self._enforce_budget()

    def drop_resident(self) -> int:
        """Evict *everything* (spilling dirty blocks) — a cold-cache reset.

        Returns the number of blocks evicted.
        """
        dropped = 0
        while self._resident:
            self._evict(next(iter(self._resident)))
            dropped += 1
        return dropped

    def release(self) -> None:
        """Let go of every file mapping (session close): resident clean blocks
        drop their columns — no eviction is counted, nothing was evicted for
        space — and a dirty block becomes a heap copy (its absent columns
        fault in, charged nothing)."""
        for block_id, block in list(self._held.items()):
            if block.dirty:
                self._uncharged = block_id
                try:
                    block.consolidate()
                finally:
                    self._uncharged = None
            else:
                self.discard(block_id)
                block.unload()

    def reset_counters(self) -> None:
        """Zero the lifetime hit/fault/eviction counters (sweep bookkeeping)."""
        self.hits = 0
        self.faults = 0
        self.evictions = 0
