"""The paper's analytical cost model (Section 4.2).

The model counts *block accesses*; the time to process a join is directly
proportional to the number of blocks accessed.  Constants follow the paper:

* ``CSJ = 3`` — a shuffle join touches each relevant block roughly three
  times (read from HDFS, write of the partitioned run, read of the run),
  equation (1).
* ``Cost-HyJ(q) = blocks(R) + C_HyJ * blocks(S)`` — a hyper-join reads each
  build-side block once and each probe-side block ``C_HyJ`` times on
  average, equation (2).
* Remote reads cost 8 % more than local reads (Figure 7 / [3]).

Cost units are the one modelled currency: one block access takes one unit
of modelled time, so :meth:`CostModel.to_seconds` is cost units per machine
and exists only to give the experiment drivers runtime-shaped series;
absolute values are not meant to match the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class CostModel:
    """Analytical cost model translating block accesses into cost units.

    Attributes:
        shuffle_factor: The paper's ``CSJ`` constant (3.0).
        remote_read_penalty: Multiplier applied to remote block reads
            (1.08, i.e. 8 % slower than a local read).
        repartition_write_factor: Cost of writing one repartitioned block
            relative to reading one block.  Repartitioning reads a block,
            routes every record through the new tree and writes it back, so
            the model charges one read plus one (slightly more expensive)
            write per block.
        parallelism: Number of machines sharing the work; modelled seconds
            are cost units divided by this value, mirroring perfectly
            parallel scans.
    """

    shuffle_factor: ClassVar[float] = 3.0
    remote_read_penalty: ClassVar[float] = 1.08
    repartition_write_factor: ClassVar[float] = 1.5
    parallelism: int = 10

    # ------------------------------------------------------------------ #
    # Equation (1): shuffle join
    # ------------------------------------------------------------------ #
    def shuffle_join_cost(self, blocks_r: float, blocks_s: float) -> float:
        """Cost-SJ(q): every relevant block on both sides pays ``CSJ``."""
        return self.shuffle_factor * (blocks_r + blocks_s)

    # ------------------------------------------------------------------ #
    # Equation (2): hyper-join
    # ------------------------------------------------------------------ #
    def hyper_join_cost(self, blocks_r: float, probe_block_reads: float) -> float:
        """Cost-HyJ(q): build blocks read once, probe blocks read per schedule.

        Args:
            blocks_r: Number of build-side blocks read (each read once).
            probe_block_reads: Total probe-side block reads produced by the
                hyper-join schedule, i.e. ``C_HyJ * blocks(S)``.
        """
        return blocks_r + probe_block_reads

    # ------------------------------------------------------------------ #
    # Scans, repartitioning, locality
    # ------------------------------------------------------------------ #
    def scan_cost(self, blocks: float, locality_fraction: float = 1.0) -> float:
        """Cost of scanning ``blocks`` with a given fraction of local reads."""
        local = blocks * locality_fraction
        remote = blocks * (1.0 - locality_fraction)
        return local + remote * self.remote_read_penalty

    def repartition_cost(self, blocks: float) -> float:
        """Cost of reading ``blocks`` and writing them back under a new tree."""
        return blocks * (1.0 + self.repartition_write_factor)

    def read_cost(self, local_reads: float, remote_reads: float) -> float:
        """Cost of an explicit mix of local and remote block reads."""
        return local_reads + remote_reads * self.remote_read_penalty

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_seconds(self, cost_units: float) -> float:
        """Convert cost units into modelled seconds on the whole cluster.

        This is the idealised conversion (perfect parallelism: cost units
        per machine); ``QueryResult.makespan_cost_units`` is the
        schedule-aware runtime.
        """
        return cost_units / max(self.parallelism, 1)
