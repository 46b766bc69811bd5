"""The "Repartitioning" baseline (Figures 13 and 18).

Instead of migrating a few blocks per query, this baseline performs a
*complete* repartitioning of a table as soon as half of the queries in the
query window use a new join attribute.  The full reorganization cost is
charged to the query that triggers it, producing the tall latency spikes the
paper reports; between reorganizations it benefits from hyper-joins just
like AdaptDB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..adaptive.window import QueryWindow
from ..api.session import Session
from ..common.query import Query
from ..core.config import AdaptDBConfig
from ..exec.result import QueryResult
from ..partitioning.two_phase import TwoPhasePartitioner
from ..storage.table import ColumnTable
from .runners import build_session


@dataclass
class FullRepartitioningBaseline:
    """Complete (non-incremental) repartitioning triggered by the query window.

    Attributes:
        tables: Raw input tables.
        config: Engine configuration (window size, block size, ...).
        trigger_fraction: Fraction of the window that must use a new join
            attribute before the full repartitioning is performed (paper: ½).
    """

    tables: list[ColumnTable]
    config: AdaptDBConfig = field(default_factory=AdaptDBConfig)
    trigger_fraction: float = 0.5
    name: str = "Repartitioning"
    session: Session = field(init=False)
    window: QueryWindow = field(init=False)

    def __post_init__(self) -> None:
        # Incremental adaptation is disabled: this runner does its own, abrupt
        # repartitioning and otherwise uses cost-based join selection.
        self.session = build_session(
            self.tables,
            replace(self.config, enable_smooth=False, enable_amoeba=False),
        )
        self.window = QueryWindow(size=self.config.window_size)

    def run_workload(self, queries: list[Query]) -> list[QueryResult]:
        """Run the workload, fully repartitioning tables when triggered."""
        return [self._run_query(query) for query in queries]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_query(self, query: Query) -> QueryResult:
        self.window.add(query)
        repartitioned_blocks = self._maybe_repartition(query)
        result = self.session.run(query, adapt=False)
        if repartitioned_blocks:
            # The rewrite is a blocking pre-step every machine shares evenly,
            # so it is charged into the loads as well as the serial sum: all
            # runtime models then move by the same modelled amount.
            extra_cost = self.session.cluster.cost_model.repartition_cost(
                repartitioned_blocks
            )
            result.blocks_repartitioned += repartitioned_blocks
            result.cost_units += extra_cost
            share = extra_cost / len(result.machine_cost_units)
            result.machine_cost_units = [
                load + share for load in result.machine_cost_units
            ]
        return result

    def _maybe_repartition(self, query: Query) -> int:
        """Fully repartition every joined table whose window majority demands it.

        Returns:
            The number of blocks rewritten (0 when nothing was triggered).
        """
        blocks_rewritten = 0
        threshold = self.trigger_fraction * max(len(self.window), 1)
        for table_name in query.tables:
            if table_name not in self.session.catalog:
                continue
            join_attribute = query.join_attribute(table_name)
            if join_attribute is None:
                continue
            table = self.session.catalog.get(table_name)
            already = (
                table.num_trees == 1
                and table.tree_for_join_attribute(join_attribute) is not None
            )
            if already:
                continue
            matching = self.window.count_join_attribute(table_name, join_attribute)
            if matching < threshold:
                continue

            selection_attributes = [
                name for name in table.sample if name != join_attribute
            ]
            partitioner = TwoPhasePartitioner(
                join_attribute=join_attribute,
                selection_attributes=selection_attributes,
                rows_per_block=self.config.rows_per_block,
                join_level_fraction=self.config.join_level_fraction,
            )
            num_leaves = max(1, math.ceil(max(table.total_rows, 1) / self.config.rows_per_block))
            tree = partitioner.build(
                table.sample, total_rows=table.total_rows, num_leaves=num_leaves
            )
            stats = table.replace_with_tree(tree)
            blocks_rewritten += stats.source_blocks + stats.target_blocks_touched
        return blocks_rewritten
