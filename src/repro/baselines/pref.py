"""Predicate-based reference partitioning (PREF [25]) baseline (Figure 12).

PREF is a *static*, workload-aware partitioner: given the join graph it
co-partitions chains of tables on their reference (join) keys and replicates
tuples that are reachable through several join paths so that every join can
run locally, without shuffling.  The trade-offs relative to AdaptDB that the
paper highlights are:

* no shuffle joins — every join is co-partitioned (good),
* data replication — the replicated copies inflate I/O (bad), and
* partitioning only on reference keys — selection predicates on other
  attributes cannot prune blocks (bad for selective queries).

The reproduction models exactly these three effects: each table is loaded
with a single tree partitioned *only* on its reference key (so joins are
co-partitioned and selections do not prune), joins are forced to the
co-partitioned hyper-join path, and the final I/O is inflated by a
replication factor derived from how many distinct join attributes reference
each table in the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..api.session import Session
from ..common.query import Query
from ..core.config import AdaptDBConfig
from ..exec.result import QueryResult
from ..partitioning.two_phase import TwoPhasePartitioner
from ..storage.sampling import DEFAULT_SAMPLE_SIZE
from ..storage.table import ColumnTable

#: Default reference keys for the TPC-H join graph used in the evaluation.
TPCH_REFERENCE_KEYS = {
    "lineitem": "l_orderkey",
    "orders": "o_orderkey",
    "customer": "c_custkey",
    "part": "p_partkey",
    "supplier": "s_suppkey",
}


@dataclass
class PREFBaseline:
    """A simplified predicate-based reference partitioning comparator.

    Attributes:
        tables: Raw input tables.
        reference_keys: Partitioning (reference) key per table.  Tables
            without an entry fall back to their first column.
        workload_hint: Queries used to derive per-table replication factors
            (how many distinct join attributes reference each table).  When
            omitted, a factor of 1 is used for every table.
        config: Engine configuration.
    """

    tables: list[ColumnTable]
    reference_keys: dict[str, str] = field(default_factory=lambda: dict(TPCH_REFERENCE_KEYS))
    workload_hint: list[Query] = field(default_factory=list)
    config: AdaptDBConfig = field(default_factory=AdaptDBConfig)
    name: str = "PREF"
    session: Session = field(init=False)
    replication_factors: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.session = Session(
            config=replace(self.config, enable_smooth=False, enable_amoeba=False,
                           force_join_method="hyper")
        )
        for table in self.tables:
            key = self.reference_keys.get(table.name, table.schema.column_names[0])
            tree = self._reference_tree(table, key)
            self.session.load_table(table, tree=tree)
        self.replication_factors = self._derive_replication_factors()

    # ------------------------------------------------------------------ #
    # Workload execution
    # ------------------------------------------------------------------ #
    def run_workload(self, queries: list[Query]) -> list[QueryResult]:
        """Run the workload on the static PREF layout."""
        return [self._run_query(query) for query in queries]

    def _run_query(self, query: Query) -> QueryResult:
        result = self.session.run(query, adapt=False)
        inflation = self._query_replication_factor(query)
        if inflation > 1.0:
            # Replicated copies inflate every machine's I/O alike, so the
            # loads scale with the serial sum under every runtime model.
            result.cost_units *= inflation
            result.machine_cost_units = [
                load * inflation for load in result.machine_cost_units
            ]
            result.blocks_read = int(round(result.blocks_read * inflation))
        return result

    # ------------------------------------------------------------------ #
    # Layout construction
    # ------------------------------------------------------------------ #
    def _reference_tree(self, table: ColumnTable, key: str):
        """A tree partitioned exclusively on the table's reference key."""
        num_leaves = max(1, math.ceil(table.num_rows / self.config.rows_per_block))
        depth = max(1, math.ceil(math.log2(num_leaves))) if num_leaves > 1 else 0
        partitioner = TwoPhasePartitioner(
            join_attribute=key,
            selection_attributes=[],
            rows_per_block=self.config.rows_per_block,
        )
        sample = table.sample(DEFAULT_SAMPLE_SIZE)
        return partitioner.build(
            sample, total_rows=table.num_rows, num_leaves=num_leaves, join_levels=depth
        )

    def _derive_replication_factors(self) -> dict[str, float]:
        """Replication factor per table: distinct join attributes referencing it.

        A table joined through a single key needs no extra copies; every
        additional join path requires replicating its tuples along that path
        (predicate-based reference partitioning keeps one copy per path).
        """
        attributes: dict[str, set[str]] = {table.name: set() for table in self.tables}
        for query in self.workload_hint:
            for clause in query.joins:
                for table_name in (clause.left_table, clause.right_table):
                    if table_name in attributes:
                        attributes[table_name].add(clause.column_for(table_name))
        return {
            name: float(max(1, len(columns)))
            for name, columns in attributes.items()
        }

    def _query_replication_factor(self, query: Query) -> float:
        """I/O inflation for one query: mean replication of the tables it reads."""
        factors = [self.replication_factors.get(table, 1.0) for table in query.tables]
        if not factors:
            return 1.0
        return float(sum(factors) / len(factors))
