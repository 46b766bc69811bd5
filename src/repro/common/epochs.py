"""The epoch/caching contract: change descriptors and the cache-key marker.

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

The read side is still declared by hand:

``@epoch_keyed(reads=(...))``
    Marks a function whose result is cached under an epoch-derived key.
    ``reads`` declares which mutable table/tree attributes the function
    is allowed to touch — anything it reads must either be immutable or
    covered by the epoch in its cache key.  The static checker rejects
    reads outside the declared set.  The decorator only attaches an
    attribute; it adds no call overhead and imports nothing from the rest
    of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

F = TypeVar("F", bound=Callable[..., object])

#: Attribute set on functions wrapped by :func:`epoch_keyed`.
EPOCH_KEYED_ATTR = "__repro_epoch_keyed_reads__"


def epoch_keyed(*, reads: tuple[str, ...] = ()) -> Callable[[F], F]:
    """Mark ``func`` as cached under an epoch-derived key.

    Args:
        reads: Mutable table/tree attribute names the function's cache
            key covers (because the key embeds the owning table's epoch,
            which is bumped whenever those attributes change).  Reads of
            mutable attributes outside this set are cache-key violations.
    """

    def decorate(func: F) -> F:
        setattr(func, EPOCH_KEYED_ATTR, tuple(reads))
        return func

    return decorate


def epoch_keyed_reads(func: object) -> tuple[str, ...] | None:
    """The declared ``reads`` of an epoch-keyed function, or ``None``."""
    reads = getattr(func, EPOCH_KEYED_ATTR, None)
    if reads is None:
        return None
    return tuple(reads)


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
