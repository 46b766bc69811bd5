"""The simulated cluster: a fixed set of machines plus a cost model.

The cluster is the substrate the distributed file system and the executor run
on.  It answers two questions the paper's evaluation depends on:

* where does a block live (for the locality model of Figure 7), and
* how many blocks fit into one worker's hash-table memory (the hyper-join
  buffer size swept in Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..common.errors import StorageError
from .costmodel import CostModel
from .machine import Machine

DEFAULT_NUM_MACHINES = 10
DEFAULT_MACHINE_MEMORY_BYTES = 4 * 1024 * 1024 * 1024  # the paper's 4 GB split size


@dataclass
class Cluster:
    """A collection of simulated worker machines.

    Attributes:
        num_machines: Number of worker nodes (the paper uses 10).
        machine_memory_bytes: Hash-table memory budget per machine.
        cost_model: Cost model used to convert block accesses into cost units.
    """

    num_machines: int = DEFAULT_NUM_MACHINES
    machine_memory_bytes: int = DEFAULT_MACHINE_MEMORY_BYTES
    cost_model: CostModel = field(default_factory=CostModel)
    machines: list[Machine] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise StorageError("a cluster needs at least one machine")
        self.machines = [
            Machine(machine_id=i, memory_bytes=self.machine_memory_bytes)
            for i in range(self.num_machines)
        ]
        # Keep the cost model's notion of parallelism in sync with the
        # actual cluster size so modelled seconds scale correctly.
        if self.cost_model.parallelism != self.num_machines:
            self.cost_model = replace(self.cost_model, parallelism=self.num_machines)

    def machine(self, machine_id: int) -> Machine:
        """Return the machine with the given id."""
        try:
            return self.machines[machine_id]
        except IndexError:
            raise StorageError(f"no machine {machine_id} in a {self.num_machines}-node cluster") from None

    def buffer_blocks(self, block_size_bytes: int) -> int:
        """How many blocks of ``block_size_bytes`` fit into one machine's memory.

        This is the ``B`` parameter of the hyper-join grouping problem.
        """
        if block_size_bytes <= 0:
            raise StorageError("block size must be positive")
        return max(1, self.machine_memory_bytes // block_size_bytes)

    def reset_read_counters(self) -> None:
        """Zero per-machine read counters before running a query."""
        for machine in self.machines:
            machine.reset_counters()

    @property
    def total_local_reads(self) -> int:
        """Local block reads across all machines since the last reset."""
        return sum(machine.local_reads for machine in self.machines)

    @property
    def total_remote_reads(self) -> int:
        """Remote block reads across all machines since the last reset."""
        return sum(machine.remote_reads for machine in self.machines)

    @property
    def locality_fraction(self) -> float:
        """Fraction of all reads since the last reset that were local."""
        total = self.total_local_reads + self.total_remote_reads
        if total == 0:
            return 1.0
        return self.total_local_reads / total
