"""The epoch/caching contract: change descriptors.

The plan cache and the hyper-plan memo are sound only because every
partition-state mutation advances the owning table's epoch and describes
itself.  Both halves hold by construction: partition state changes only
inside :meth:`repro.storage.table.StoredTable.mutation`, whose primitives
record every block and tree id they touch into a **change descriptor**
(:class:`PartitionDelta`) and whose exit is the one place the epoch
advances.  Descriptors are kept in a bounded per-table delta chain
(:meth:`repro.storage.table.StoredTable.delta_between`), which is what
lets the planning layers *patch* cached overlap matrices, groupings and
compiled schedules across epoch bumps instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class PartitionDelta:
    """Change descriptor for one (or a merged run of) epoch bump(s).

    ``StoredTable.mutation()`` opens one, the mutation primitives add the
    ids they touch while the mutation runs (which is why the sets are
    mutable), and the context's exit appends it to the owning table's
    bounded delta chain.  The chain therefore only ever holds descriptors of
    mutations that have finished, and nothing writes to one after that.

    Attributes:
        blocks_changed: Block ids whose *contents* (rows, and therefore
            ranges and emptiness) changed — appended to, cleared, or
            rewritten by a re-split.
        blocks_dropped: Block ids deleted from the table.
        trees_resplit: Tree ids whose internal split nodes changed
            (Amoeba transforms) — lookups over these trees may differ, but
            the tree *set* (and join-attribute classification) is intact.
        trees_added: Tree ids newly registered with the table.
        trees_dropped: Tree ids removed from the table.
        full: Blanket change — everything may differ (initial load, full
            repartitioning).  Consumers must fall back to a recompute.
    """

    blocks_changed: set[int] = field(default_factory=set)
    blocks_dropped: set[int] = field(default_factory=set)
    trees_resplit: set[int] = field(default_factory=set)
    trees_added: set[int] = field(default_factory=set)
    trees_dropped: set[int] = field(default_factory=set)
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
        self.blocks_changed |= other.blocks_changed
        self.blocks_dropped |= other.blocks_dropped
        self.trees_resplit |= other.trees_resplit
        self.trees_added |= other.trees_added
        self.trees_dropped |= other.trees_dropped
        self.full = self.full or other.full

    @property
    def touched_blocks(self) -> set[int]:
        """Blocks whose cached per-block state (rows, ranges) is stale."""
        return self.blocks_changed | self.blocks_dropped

    def preserves_tree_set(self) -> bool:
        """Whether the table's tree set (and join classification) survived.

        Re-splits inside existing trees are fine — they change lookups, not
        which trees exist or their join attributes; adding or dropping a
        tree can flip the optimizer's structural join classification.
        """
        return not self.full and not self.trees_added and not self.trees_dropped
