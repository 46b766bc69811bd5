"""A simulated distributed file system (the paper's HDFS substrate).

The DFS owns every block in the system.  It assigns globally unique block
ids, places replicas on machines, and is the single point through which block
reads flow so that locality and I/O statistics can be accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..common.errors import StorageError
from ..common.rng import make_rng
from ..cluster.cluster import Cluster
from .block import Block

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .persist.buffer import BlockBuffer
    from .persist.store import PersistentBlockStore

DEFAULT_REPLICATION = 3


@dataclass
class ReadStats:
    """Accumulated read statistics since the last reset.

    The three ``buffer_*`` counters stay zero for purely in-memory sessions;
    under ``persistence="mmap"`` the block buffer mirrors its events here so
    every execution reports its own hit/fault/eviction traffic.
    """

    local_reads: int = 0
    remote_reads: int = 0
    buffer_hits: int = 0
    buffer_faults: int = 0
    buffer_evictions: int = 0

    @property
    def total_reads(self) -> int:
        """Total block reads."""
        return self.local_reads + self.remote_reads

    @property
    def locality_fraction(self) -> float:
        """Fraction of local reads (1.0 if nothing was read)."""
        if self.total_reads == 0:
            return 1.0
        return self.local_reads / self.total_reads


@dataclass
class DistributedFileSystem:
    """Block storage spread over the machines of a :class:`Cluster`.

    Attributes:
        cluster: The cluster whose machines hold block replicas.
        replication: Number of replicas per block (capped at cluster size).
        rng: Random generator used for replica placement.
    """

    cluster: Cluster
    replication: int = DEFAULT_REPLICATION
    rng: np.random.Generator = field(default_factory=make_rng)
    _blocks: dict[int, Block] = field(default_factory=dict)
    _placement: dict[int, list[int]] = field(default_factory=dict)
    _table_blocks: dict[str, set[int]] = field(default_factory=dict, repr=False)
    _next_block_id: int = 0
    read_stats: ReadStats = field(default_factory=ReadStats)
    #: Persistence hooks — ``None`` for in-memory sessions; attached by the
    #: PersistenceManager.  The buffer accounts reads/faults/evictions, the
    #: store tracks which machine directory each block spills to.
    buffer: "BlockBuffer | None" = field(default=None, repr=False)
    block_store: "PersistentBlockStore | None" = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Block lifecycle
    # ------------------------------------------------------------------ #
    def allocate_block_id(self) -> int:
        """Reserve and return a fresh globally unique block id."""
        block_id = self._next_block_id
        self._next_block_id += 1
        return block_id

    def put_block(self, block: Block, machine_ids: Sequence[int] | None = None) -> int:
        """Store ``block`` and place its replicas on machines.

        Args:
            block: The block to store.
            machine_ids: Explicit replica placement — the restore path passes
                the checkpointed placement so a reopened session reproduces
                the exact locality the original had.  ``None`` (the normal
                path) draws a fresh placement from the DFS RNG.

        Returns:
            The block id.
        """
        if block.block_id in self._blocks:
            raise StorageError(f"block {block.block_id} already exists")
        if machine_ids is None:
            replicas = min(self.replication, self.cluster.num_machines)
            machine_ids = list(
                self.rng.choice(self.cluster.num_machines, size=replicas, replace=False)
            )
        placement = [int(m) for m in machine_ids]
        self._blocks[block.block_id] = block
        self._placement[block.block_id] = placement
        self._table_blocks.setdefault(block.table, set()).add(block.block_id)
        for machine_id in placement:
            self.cluster.machine(machine_id).stored_blocks.add(block.block_id)
        if self.block_store is not None:
            # New blocks spill under their primary replica's machine dir.
            self.block_store.register_block(block.block_id, placement[0])
        if self.buffer is not None and block.is_resident:
            self.buffer.admit(block)
        return block.block_id

    def create_block(self, table: str, columns: dict[str, np.ndarray]) -> Block:
        """Allocate an id, build a :class:`Block` for ``table`` and store it."""
        block = Block(block_id=self.allocate_block_id(), table=table, columns=columns)
        self.put_block(block)
        return block

    def delete_block(self, block_id: int) -> None:
        """Remove a block and all its replicas."""
        if block_id not in self._blocks:
            raise StorageError(f"cannot delete unknown block {block_id}")
        for machine_id in self._placement.pop(block_id):
            self.cluster.machine(machine_id).stored_blocks.discard(block_id)
        self._table_blocks[self._blocks[block_id].table].discard(block_id)
        del self._blocks[block_id]
        if self.buffer is not None:
            self.buffer.discard(block_id)
        if self.block_store is not None:
            self.block_store.forget_block(block_id)

    def restore_block_counter(self, next_block_id: int) -> None:
        """Resume id allocation where a checkpointed session left off."""
        if next_block_id < self._next_block_id:
            raise StorageError(
                f"cannot rewind block id counter from {self._next_block_id} "
                f"to {next_block_id}"
            )
        self._next_block_id = next_block_id

    @property
    def next_block_id(self) -> int:
        """The id the next allocation will hand out (checkpoint metadata)."""
        return self._next_block_id

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get_block(self, block_id: int, reader_machine: int) -> Block:
        """Read a block, accounting locality against the machine reading it."""
        block = self.peek_block(block_id)
        machine = self.cluster.machine(reader_machine)
        if machine.record_read(block_id):
            self.read_stats.local_reads += 1
        else:
            self.read_stats.remote_reads += 1
        if self.buffer is not None:
            # Resident blocks count a hit and refresh recency; spilled blocks
            # fault lazily (and are then accounted) on first column access.
            self.buffer.touch(block)
        return block

    def get_blocks(self, block_ids: Sequence[int], reader_machine: int) -> list[Block]:
        """Read a batch of blocks in one call, accounting locality per block.

        Tasks issue one ``get_blocks`` call for all blocks they touch instead
        of one ``get_block`` per block; the returned list preserves the order
        of ``block_ids``.  Without a buffer (which must see every ``touch``
        in order) one reader's batch is accounted in one step.
        """
        if self.buffer is not None:
            return [self.get_block(block_id, reader_machine) for block_id in block_ids]
        try:
            blocks = [self._blocks[block_id] for block_id in block_ids]
        except KeyError as error:
            raise StorageError(f"unknown block {error.args[0]}") from None
        machine = self.cluster.machine(reader_machine)
        local = sum(map(machine.stored_blocks.__contains__, block_ids))
        machine.local_reads += local
        machine.remote_reads += len(blocks) - local
        self.read_stats.local_reads += local
        self.read_stats.remote_reads += len(blocks) - local
        return blocks

    def announce(self, block_ids: Iterable[int]) -> None:
        """Tell the block buffer, if one is attached, the order in which the
        coming execution reads blocks (an eviction hint, never an answer)."""
        if self.buffer is not None:
            self.buffer.announce(block_ids)

    def peek_block(self, block_id: int) -> Block:
        """Return a block without recording a read (metadata access).

        Diagnostic peeks bypass the persistence tier entirely: no read is
        accounted, no buffer hit is counted and the block's recency is not
        refreshed, so planning probes and statistics audits cannot perturb
        eviction order.  (If a peek caller then reads a *spilled* block's
        column data, the lazy fault still charges the materialization — the
        bypass covers the peek, not the data it may pull in.)
        """
        try:
            return self._blocks[block_id]
        except KeyError:
            raise StorageError(f"unknown block {block_id}") from None

    def has_block(self, block_id: int) -> bool:
        """Whether ``block_id`` exists."""
        return block_id in self._blocks

    def replicas_of(self, block_id: int) -> list[int]:
        """Machine ids holding replicas of ``block_id``."""
        try:
            return list(self._placement[block_id])
        except KeyError:
            raise StorageError(f"unknown block {block_id}") from None

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def reset_read_stats(self) -> None:
        """Zero the DFS and per-machine read counters."""
        self.read_stats = ReadStats()
        self.cluster.reset_read_counters()

    @property
    def num_blocks(self) -> int:
        """Number of blocks currently stored."""
        return len(self._blocks)

    def blocks_of_table(self, table: str) -> list[int]:
        """Ids of all blocks belonging to ``table`` (sorted, index-served)."""
        return sorted(self._table_blocks.get(table, ()))

    def total_bytes(self, table: str | None = None) -> int:
        """Total stored bytes, optionally restricted to one table."""
        if table is not None:
            return sum(
                self._blocks[block_id].size_bytes
                for block_id in self._table_blocks.get(table, ())
            )
        return sum(block.size_bytes for block in self._blocks.values())
