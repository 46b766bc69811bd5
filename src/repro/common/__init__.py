"""Shared value types: schemas, predicates, queries, errors, RNG helpers."""

from .errors import (
    ExecutionError,
    PartitioningError,
    PlanningError,
    ReproError,
    SchemaError,
    StorageError,
    WorkloadError,
)
from .predicates import (
    Operator,
    Predicate,
    between,
    block_may_match,
    eq,
    ge,
    gt,
    isin,
    le,
    lt,
    rows_matching,
)
from .query import JoinClause, Query, join_query, scan_query
from .rng import DEFAULT_SEED, derive_rng, make_rng, spawn_rngs
from .schema import Column, DataType, Schema

__all__ = [
    "Column",
    "DataType",
    "DEFAULT_SEED",
    "ExecutionError",
    "JoinClause",
    "Operator",
    "PartitioningError",
    "PlanningError",
    "Predicate",
    "Query",
    "ReproError",
    "Schema",
    "SchemaError",
    "StorageError",
    "WorkloadError",
    "between",
    "block_may_match",
    "derive_rng",
    "eq",
    "ge",
    "gt",
    "isin",
    "join_query",
    "le",
    "lt",
    "make_rng",
    "rows_matching",
    "scan_query",
    "spawn_rngs",
]
