"""The simulated cluster: a fixed set of machines plus a cost model.

The cluster is the substrate the distributed file system and the executor run
on: its machines say where a block lives (for the locality model of
Figure 7) and count each machine's local and remote reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..common.errors import StorageError
from .costmodel import CostModel
from .machine import Machine

DEFAULT_NUM_MACHINES = 10


@dataclass
class Cluster:
    """A collection of simulated worker machines.

    Attributes:
        num_machines: Number of worker nodes (the paper uses 10).
        cost_model: Cost model used to convert block accesses into cost units.
    """

    num_machines: int = DEFAULT_NUM_MACHINES
    cost_model: CostModel = field(default_factory=CostModel)
    machines: list[Machine] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_machines <= 0:
            raise StorageError("a cluster needs at least one machine")
        self.machines = [Machine(machine_id=i) for i in range(self.num_machines)]
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

    def reset_read_counters(self) -> None:
        """Zero per-machine read counters before running a query."""
        for machine in self.machines:
            machine.reset_counters()
