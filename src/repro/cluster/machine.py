"""A single worker machine in the simulated cluster.

The paper ran on 10 physical nodes with 256 GB of RAM each.  In the
reproduction a machine is a bookkeeping object: it has an identifier, the
blocks whose replicas it holds, and counters of how many blocks it has read
locally vs. remotely.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Machine:
    """A simulated worker node.

    Attributes:
        machine_id: Zero-based identifier within the cluster.
        local_reads: Number of blocks this machine read from its own disk.
        remote_reads: Number of blocks this machine read over the network.
    """

    machine_id: int
    local_reads: int = 0
    remote_reads: int = 0
    stored_blocks: set[int] = field(default_factory=set)

    def holds(self, block_id: int) -> bool:
        """Whether a replica of ``block_id`` lives on this machine's disk."""
        return block_id in self.stored_blocks

    def record_read(self, block_id: int) -> bool:
        """Record a read of ``block_id`` by this machine.

        Returns:
            ``True`` if the read was local, ``False`` if it was remote.
        """
        if self.holds(block_id):
            self.local_reads += 1
            return True
        self.remote_reads += 1
        return False

    def reset_counters(self) -> None:
        """Zero the read counters (start of a new query)."""
        self.local_reads = 0
        self.remote_reads = 0
