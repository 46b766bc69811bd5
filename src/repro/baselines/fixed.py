""""Best guess" hand-tuned fixed partitioning (Figure 18).

For the CMT experiment the paper compares AdaptDB against a partitioning tree
built *by hand* from the attributes appearing in the full 103-query trace:
each table's join attribute occupies the top tree levels and the most
frequent predicate attributes the lower levels, and the layout never changes
afterwards.  It represents the best a static, workload-aware partitioning can
do — AdaptDB is expected to converge towards (and occasionally beat) it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections import Counter

from ..api.session import Session
from ..common.query import Query
from ..core.config import AdaptDBConfig
from ..exec.result import QueryResult
from ..partitioning.two_phase import TwoPhasePartitioner
from ..partitioning.upfront import UpfrontPartitioner
from ..storage.sampling import DEFAULT_SAMPLE_SIZE
from ..storage.table import ColumnTable


@dataclass
class BestGuessFixedBaseline:
    """A static layout tuned from the full query trace, with no adaptation.

    Attributes:
        tables: Raw input tables.
        workload: The full query trace used to choose each table's join
            attribute and hot selection attributes.
        config: Engine configuration.
    """

    tables: list[ColumnTable]
    workload: list[Query]
    config: AdaptDBConfig = field(default_factory=AdaptDBConfig)
    name: str = '"Best Guess" Fixed Partitioning'
    session: Session = field(init=False)

    def __post_init__(self) -> None:
        self.session = Session(
            config=replace(self.config, enable_smooth=False, enable_amoeba=False)
        )
        for table in self.tables:
            tree = self._hand_tuned_tree(table)
            self.session.load_table(table, tree=tree)

    def run_workload(self, queries: list[Query]) -> list[QueryResult]:
        """Run the workload on the fixed, hand-tuned layout."""
        return self.session.run_workload(queries, adapt=False)

    # ------------------------------------------------------------------ #
    # Layout construction
    # ------------------------------------------------------------------ #
    def _hand_tuned_tree(self, table: ColumnTable):
        join_attribute = self._dominant_join_attribute(table.name)
        selection_attributes = self._hot_selection_attributes(table.name, table)
        sample = table.sample(DEFAULT_SAMPLE_SIZE)
        num_leaves = max(1, math.ceil(table.num_rows / self.config.rows_per_block))

        if join_attribute is None:
            attributes = selection_attributes or table.schema.column_names
            return UpfrontPartitioner(
                attributes=attributes, rows_per_block=self.config.rows_per_block
            ).build(sample, total_rows=table.num_rows, num_leaves=num_leaves)

        partitioner = TwoPhasePartitioner(
            join_attribute=join_attribute,
            selection_attributes=selection_attributes,
            rows_per_block=self.config.rows_per_block,
            join_level_fraction=self.config.join_level_fraction,
        )
        return partitioner.build(sample, total_rows=table.num_rows, num_leaves=num_leaves)

    def _dominant_join_attribute(self, table_name: str) -> str | None:
        counts: Counter[str] = Counter()
        for query in self.workload:
            attribute = query.join_attribute(table_name)
            if attribute is not None:
                counts[attribute] += 1
        if not counts:
            return None
        return counts.most_common(1)[0][0]

    def _hot_selection_attributes(self, table_name: str, table: ColumnTable) -> list[str]:
        counts: Counter[str] = Counter()
        for query in self.workload:
            for attribute in query.predicate_attributes(table_name):
                counts[attribute] += 1
        return [
            attribute
            for attribute, _ in counts.most_common()
            if attribute in table.schema
        ]
