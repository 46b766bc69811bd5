"""Query descriptions.

AdaptDB's storage manager sees queries as *access descriptors*: which tables
are read, which selection predicates apply to each table, and which equi-join
clauses connect them.  Aggregations and projections run on top of the
returned rows (in the paper, as Spark RDD operations) and do not influence
partitioning decisions, so they are represented only as an optional label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PlanningError
from .predicates import Predicate

_query_counter = itertools.count(1)


@dataclass(frozen=True)
class JoinClause:
    """An equi-join between two tables.

    Attributes:
        left_table / right_table: Names of the joined tables.
        left_column / right_column: Join columns on each side.
    """

    left_table: str
    right_table: str
    left_column: str
    right_column: str

    def involves(self, table: str) -> bool:
        """Return whether ``table`` participates in this join."""
        return table in (self.left_table, self.right_table)

    def column_for(self, table: str) -> str:
        """Return the join column of ``table`` in this clause."""
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise PlanningError(f"table {table!r} does not participate in join {self}")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )


@dataclass
class Query:
    """A query against the AdaptDB storage manager.

    Attributes:
        tables: Tables read by the query, in join order.
        predicates: Selection predicates per table (tables may be absent).
        joins: Equi-join clauses, in execution order.
        template: Optional label of the workload template that produced the
            query (e.g. ``"q14"``), used for reporting.
        query_id: Monotonically increasing identifier.
    """

    tables: list[str]
    predicates: dict[str, list[Predicate]] = field(default_factory=dict)
    joins: list[JoinClause] = field(default_factory=list)
    template: str = ""
    query_id: int = field(default_factory=lambda: next(_query_counter))

    def __post_init__(self) -> None:
        if not self.tables:
            raise PlanningError("a query must read at least one table")
        for table in self.predicates:
            if table not in self.tables:
                raise PlanningError(f"predicates refer to table {table!r} not read by the query")
        for join in self.joins:
            for table in (join.left_table, join.right_table):
                if table not in self.tables:
                    raise PlanningError(f"join {join} refers to table {table!r} not read by the query")

    # ------------------------------------------------------------------ #
    # Accessors used by the optimizer and adaptors
    # ------------------------------------------------------------------ #
    def predicates_on(self, table: str) -> list[Predicate]:
        """Selection predicates applying to ``table`` (possibly empty)."""
        return list(self.predicates.get(table, []))

    def joins_involving(self, table: str) -> list[JoinClause]:
        """Join clauses in which ``table`` participates."""
        return [join for join in self.joins if join.involves(table)]

    def join_attribute(self, table: str) -> str | None:
        """The join column of ``table`` in this query's *primary* join.

        Smooth repartitioning tracks one join attribute per query per table
        (the paper's query window records the join attribute of each query);
        when a table participates in several joins the first clause is the
        primary one, matching the paper's join-order convention.
        """
        involved = self.joins_involving(table)
        if not involved:
            return None
        return involved[0].column_for(table)

    @property
    def is_join_query(self) -> bool:
        """Whether the query contains at least one join."""
        return bool(self.joins)

    def predicate_attributes(self, table: str) -> list[str]:
        """Distinct predicate columns on ``table``, in first-use order."""
        seen: list[str] = []
        for predicate in self.predicates_on(table):
            if predicate.column not in seen:
                seen.append(predicate.column)
        return seen

    def describe(self) -> str:
        """Short human-readable description of the query."""
        parts = [f"Q{self.query_id}"]
        if self.template:
            parts.append(f"[{self.template}]")
        parts.append("tables=" + ",".join(self.tables))
        if self.joins:
            parts.append("joins=" + "; ".join(str(join) for join in self.joins))
        return " ".join(parts)


def scan_query(table: str, predicates: list[Predicate] | None = None, template: str = "") -> Query:
    """Convenience constructor for a single-table scan query."""
    return Query(
        tables=[table],
        predicates={table: list(predicates or [])},
        template=template,
    )


def join_query(
    left_table: str,
    right_table: str,
    left_column: str,
    right_column: str,
    predicates: dict[str, list[Predicate]] | None = None,
    template: str = "",
) -> Query:
    """Convenience constructor for a two-table equi-join query."""
    return Query(
        tables=[left_table, right_table],
        predicates=dict(predicates or {}),
        joins=[JoinClause(left_table, right_table, left_column, right_column)],
        template=template,
    )
