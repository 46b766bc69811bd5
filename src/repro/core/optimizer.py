"""The AdaptDB optimizer (Sections 5.4 and 6).

Per query the optimizer chooses join methods: for every join clause it
estimates ``Cost-SJ`` and ``Cost-HyJ`` from the relevant block sets (using
the bottom-up grouping algorithm to estimate ``C_HyJ``) and picks the
cheaper method, unless the configuration forces one.  Adaptation (the
paper's Type 2 blocks) runs before it, in ``Session.plan``, which records
the repartitioner's report on the plan.

The result is a :class:`QueryPlan` that the executor can run without making
further decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..adaptive.repartitioner import RepartitionReport
from ..cluster.cluster import Cluster
from ..common.errors import PlanningError
from ..common.query import JoinClause, Query
from ..join.hyperjoin import HyperJoinPlan, HyperPlanCache
from ..storage.catalog import Catalog
from .config import AdaptDBConfig
from .planner import JoinClassification, JoinMethod, classify_join


@dataclass
class JoinDecision:
    """The optimizer's decision for one join clause.

    Attributes:
        clause: The join clause.
        method: Chosen join algorithm.
        classification: The planner's structural classification.
        build_table / probe_table: Sides of the hyper-join (build side holds
            the hash tables); for shuffle joins the labels are kept for
            reporting symmetry.
        build_blocks / probe_blocks: Relevant block ids per side.
        hyper_plan: The cheaper build direction's hyper-join schedule.  Always
            set, whatever the method; executed only when it is ``HYPER``.
        estimated_shuffle_cost / estimated_hyper_cost: Cost-model estimates
            used to make the decision.
    """

    clause: JoinClause
    method: JoinMethod
    classification: JoinClassification
    build_table: str
    probe_table: str
    build_blocks: list[int]
    probe_blocks: list[int]
    hyper_plan: HyperJoinPlan
    estimated_shuffle_cost: float
    estimated_hyper_cost: float


@dataclass
class QueryPlan:
    """Everything the executor needs to run one query."""

    query: Query
    scan_tables: list[str]
    scan_blocks: dict[str, list[int]]
    join_decisions: list[JoinDecision]
    adaptation: RepartitionReport = field(default_factory=RepartitionReport)


@dataclass
class Optimizer:
    """Cost-based join-method selection plus adaptation orchestration.

    Hyper-join schedules (overlap matrix + grouping) are memoized in
    ``hyper_cache`` across queries, keyed on both tables' partition-state
    epochs — repeated-template workloads re-cost the same block sets every
    query and hit the cache once adaptation converges.
    """

    catalog: Catalog
    cluster: Cluster
    config: AdaptDBConfig
    hyper_cache: HyperPlanCache = field(default_factory=HyperPlanCache)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def plan_query(self, query: Query) -> QueryPlan:
        """Produce an executable plan for ``query`` at the current layout."""
        joined_tables = {table for clause in query.joins for table in (clause.left_table, clause.right_table)}
        scan_tables = [table for table in query.tables if table not in joined_tables]
        scan_blocks = {
            table: self._relevant_blocks(table, query) for table in scan_tables
        }
        decisions = [self._decide_join(query, clause) for clause in query.joins]
        return QueryPlan(
            query=query,
            scan_tables=scan_tables,
            scan_blocks=scan_blocks,
            join_decisions=decisions,
        )

    # ------------------------------------------------------------------ #
    # Join decisions
    # ------------------------------------------------------------------ #
    def _decide_join(self, query: Query, clause: JoinClause) -> JoinDecision:
        classification = classify_join(self.catalog, clause)
        left_blocks = self._relevant_blocks(clause.left_table, query)
        right_blocks = self._relevant_blocks(clause.right_table, query)

        shuffle_cost = self.cluster.cost_model.shuffle_join_cost(
            len(left_blocks), len(right_blocks)
        )

        # Evaluate hyper-join with either side as the build side and keep the
        # cheaper schedule.  The build side is grouped into hash tables, the
        # probe side is re-read according to the grouping.
        candidates: list[tuple[float, str, str, list[int], list[int], HyperJoinPlan]] = []
        for build_table, probe_table, build_blocks, probe_blocks, build_col, probe_col in (
            (clause.left_table, clause.right_table, left_blocks, right_blocks,
             clause.left_column, clause.right_column),
            (clause.right_table, clause.left_table, right_blocks, left_blocks,
             clause.right_column, clause.left_column),
        ):
            plan = self._hyper_plan(
                build_table, probe_table, build_blocks, probe_blocks, build_col, probe_col
            )
            cost = self.cluster.cost_model.hyper_join_cost(
                len(plan.build_block_ids), plan.estimated_probe_reads
            )
            candidates.append((cost, build_table, probe_table, build_blocks, probe_blocks, plan))

        hyper_cost, build_table, probe_table, build_blocks, probe_blocks, hyper_plan = min(
            candidates, key=lambda candidate: candidate[0]
        )

        method = self._choose_method(shuffle_cost, hyper_cost)
        return JoinDecision(
            clause=clause,
            method=method,
            classification=classification,
            build_table=build_table,
            probe_table=probe_table,
            build_blocks=build_blocks,
            probe_blocks=probe_blocks,
            hyper_plan=hyper_plan,
            estimated_shuffle_cost=shuffle_cost,
            estimated_hyper_cost=hyper_cost,
        )

    def _hyper_plan(
        self,
        build_table: str,
        probe_table: str,
        build_blocks: list[int],
        probe_blocks: list[int],
        build_col: str,
        probe_col: str,
    ) -> HyperJoinPlan:
        """Plan one hyper-join direction through the epoch-keyed cache."""
        return self.hyper_cache.get_or_plan(
            self.catalog.get(build_table),
            self.catalog.get(probe_table),
            build_blocks,
            probe_blocks,
            build_col,
            probe_col,
            self.config.buffer_blocks,
            self.config.grouping_algorithm,
        )

    def _choose_method(self, shuffle_cost: float, hyper_cost: float) -> JoinMethod:
        if self.config.force_join_method == "shuffle":
            return JoinMethod.SHUFFLE
        if self.config.force_join_method == "hyper":
            return JoinMethod.HYPER
        return JoinMethod.HYPER if hyper_cost <= shuffle_cost else JoinMethod.SHUFFLE

    # ------------------------------------------------------------------ #
    # Block relevance
    # ------------------------------------------------------------------ #
    def _relevant_blocks(self, table_name: str, query: Query) -> list[int]:
        """Blocks of ``table_name`` that must be read for ``query``.

        With pruning enabled this is the union of the table's trees' lookups
        under the query's predicates; without pruning it is every non-empty
        block (the Full Scan baseline).
        """
        if table_name not in self.catalog:
            raise PlanningError(f"query references unknown table {table_name!r}")
        table = self.catalog.get(table_name)
        if not self.config.enable_pruning:
            return table.non_empty_block_ids()
        return table.lookup(query.predicates_on(table_name))
