"""The adaptive repartitioner: AdaptDB's per-query adaptation driver.

For every incoming query the repartitioner (a) records the query in the
window, (b) runs smooth repartitioning on every joined table, migrating a
small number of blocks towards the tree of the query's join attribute, and
(c) runs Amoeba-style selection refinement on the lower tree levels.  The
work it performs is returned so the executor can charge it to the query — in
the paper this corresponds to Type 2 blocks, which are scanned *and*
repartitioned by the same Spark tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.query import Query
from ..common.rng import make_rng
from ..storage.catalog import Catalog
from .amoeba import AmoebaAdaptor
from .smooth import SmoothRepartitioner
from .window import DEFAULT_WINDOW_SIZE, QueryWindow


@dataclass
class RepartitionReport:
    """Adaptation work charged to one query."""

    blocks_repartitioned: int = 0
    rows_repartitioned: int = 0
    trees_created: int = 0
    amoeba_transforms: int = 0
    per_table_blocks: dict[str, int] = field(default_factory=dict)

    def record(self, table: str, blocks: int, rows: int) -> None:
        """Add repartitioning work for ``table``."""
        self.blocks_repartitioned += blocks
        self.rows_repartitioned += rows
        self.per_table_blocks[table] = self.per_table_blocks.get(table, 0) + blocks


@dataclass
class AdaptiveRepartitioner:
    """Coordinates smooth repartitioning and Amoeba refinement per query.

    Attributes:
        window_size: Length of the query window.
        rows_per_block: Target block size for newly created trees.
        join_level_fraction: Fraction of tree levels reserved for join
            attributes in new two-phase trees.
        enable_smooth: Toggle for smooth (join-driven) repartitioning.
        enable_amoeba: Toggle for selection-driven refinement.
        rng: Random generator for block selection.
    """

    window_size: int = DEFAULT_WINDOW_SIZE
    rows_per_block: int = 4096
    join_level_fraction: float = 0.5
    join_levels_override: int | None = None
    enable_smooth: bool = True
    enable_amoeba: bool = True
    rng: np.random.Generator = field(default_factory=make_rng)
    window: QueryWindow = field(init=False)
    smooth: SmoothRepartitioner = field(init=False)
    amoeba: AmoebaAdaptor = field(init=False)

    def __post_init__(self) -> None:
        self.window = QueryWindow(size=self.window_size)
        self.smooth = SmoothRepartitioner(
            rows_per_block=self.rows_per_block,
            join_level_fraction=self.join_level_fraction,
            join_levels_override=self.join_levels_override,
            rng=self.rng,
        )
        self.amoeba = AmoebaAdaptor()

    def on_query(self, catalog: Catalog, query: Query) -> RepartitionReport:
        """Adapt the storage layout in response to ``query``.

        Returns:
            A :class:`RepartitionReport` describing the blocks migrated and
            transformations applied, to be charged to the query's runtime.
        """
        self.window.add(query)
        report = RepartitionReport()
        tables = [catalog.get(name) for name in query.tables if name in catalog]

        if self.enable_smooth:
            for table in tables:
                plan = self.smooth.plan(table, query, self.window)
                if plan.created_tree_id is not None:
                    report.trees_created += 1
                stats = self.smooth.apply(table, plan)
                report.record(table.name, stats.source_blocks, stats.rows_moved)

        if self.enable_amoeba:
            for table in tables:
                stats = self.amoeba.adapt(table, self.window)
                report.amoeba_transforms += stats.transforms_applied
                report.record(table.name, stats.blocks_repartitioned, stats.rows_moved)

        return report
