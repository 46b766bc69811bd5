"""The epoch/caching contract: change descriptors.

The plan cache and the hyper-plan memo are sound only because every
partition-state mutation advances the owning table's epoch and describes
itself.  Both halves hold by construction: partition state changes only
inside :meth:`repro.storage.table.StoredTable.mutation`, whose primitives
record every block id they touch into a **change descriptor**
(:class:`PartitionDelta`) and whose exit is the one place the epoch
advances.  Every tree change touches block ids too (a new tree's blocks, a
dropped tree's blocks, a re-split node's two leaf blocks), so a descriptor
needs no tree ids.  Descriptors are kept in a bounded per-table delta
chain (:meth:`repro.storage.table.StoredTable.delta_between`), which is
what lets the hyper-plan memo *patch* cached overlap matrices and
groupings, and the parallel backend's slab drop only stale slots, across
epoch bumps.  The session plan cache does not read it: an entry serves
only its exact epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class PartitionDelta:
    """Change descriptor for one (or a merged run of) epoch bump(s).

    ``StoredTable.mutation()`` opens one, the mutation primitives add the
    ids they touch while the mutation runs (which is why the set is
    mutable), and the context's exit appends it to the owning table's
    bounded delta chain.  The chain therefore only ever holds descriptors of
    mutations that have finished, and nothing writes to one after that.

    Attributes:
        blocks: Block ids whose cached per-block state (rows, ranges,
            emptiness, leaf bounds) may be stale — created, appended to,
            cleared, rewritten or re-split, or deleted from the table.
        full: Blanket change — everything may differ (initial load, full
            repartitioning).  Consumers must fall back to a recompute.
    """

    blocks: set[int] = field(default_factory=set)
    full: bool = False

    @classmethod
    def full_change(cls) -> "PartitionDelta":
        """A blanket descriptor: cached state must be rebuilt from scratch."""
        return cls(full=True)

    @classmethod
    def merged(cls, deltas: Iterable["PartitionDelta"]) -> "PartitionDelta":
        """Combine a chain of descriptors into one (never mutates inputs)."""
        result = cls()
        for delta in deltas:
            if delta.full:
                return cls.full_change()
            result.include(delta)
        return result

    def include(self, other: "PartitionDelta") -> None:
        """Add everything ``other`` describes to this descriptor, in place."""
        self.blocks |= other.blocks
        self.full = self.full or other.full
