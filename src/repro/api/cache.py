"""The session plan cache: epoch-keyed, bounded, exact-match.

A cache key is ``(query signature, per-table epochs)``:

* the *signature* (:func:`query_signature`) is a structural digest of the
  query — tables, join clauses and the full predicate set including values —
  deliberately excluding the ``query_id`` and ``template`` label, so two
  queries that read the same data the same way share an entry regardless of
  how they were generated;
* the *epochs* are ``(table, epoch)`` pairs snapshotted **after** adaptation
  ran for the query.  Epochs increase monotonically on every partition-state
  mutation (see :class:`repro.storage.table.StoredTable`), so a key can only
  hit an entry created at exactly the same partition state — a post-mutation
  query can never be served a stale plan, and mutations of unrelated tables
  leave entries untouched.  An entry serves only its exact epochs: once a
  table it reads bumps, the entry is never looked up again and ages out of
  the LRU.

Entries hold the reusable planning products: the logical decisions (relevant
block sets, join decisions with their hyper schedules) and, once a query ran
without adaptation work, the compiled + scheduled physical skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..common.lru import BoundedLRU
from ..common.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..core.optimizer import JoinDecision
    from ..exec.scheduler import CompiledPlan
    from ..exec.tasks import TaskSchedule


def _freeze(value: object) -> object:
    """Make a predicate value hashable (IN predicates carry tuples already)."""
    if isinstance(value, (list, set)):
        return tuple(value)
    return value


def query_signature(query: Query) -> tuple[object, ...]:
    """Structural digest of a query, stable across query ids and labels.

    Predicates are sorted so that two queries carrying the same predicate
    multiset in different orders share a signature — block pruning and row
    filtering both intersect predicate results, so ordering never changes
    the plan or the answer.
    """
    joins = tuple(
        (clause.left_table, clause.left_column, clause.right_table, clause.right_column)
        for clause in query.joins
    )
    # list[Any] so sorted() accepts the heterogeneous-but-comparable tuples;
    # the runtime ordering (and therefore the key content) is unchanged.
    entries: list[Any] = [
        (table, predicate.column, predicate.op.value,
         _freeze(predicate.value), predicate.high)
        for table, table_predicates in query.predicates.items()
        for predicate in table_predicates
    ]
    predicates = tuple(sorted(entries))
    return (tuple(query.tables), joins, predicates)


@dataclass
class CachedPlan:
    """The reusable planning products of one ``(signature, epochs)`` key.

    ``compiled``/``schedule`` stay ``None`` until the plan was lowered for a
    query without adaptation work — repartition tasks belong to the query
    that triggered them and must never be replayed from a cache.
    """

    scan_tables: list[str]
    scan_blocks: dict[str, list[int]]
    join_decisions: "list[JoinDecision]"
    compiled: "CompiledPlan | None" = None
    schedule: "TaskSchedule | None" = None


#: A bounded LRU from ``(signature, epochs)`` keys to :class:`CachedPlan`.
#: Lookups are exact-match: an entry serves only the epochs it was planned at.
PlanCache = BoundedLRU[tuple[object, ...], CachedPlan]
