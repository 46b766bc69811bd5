"""The staged query-lifecycle API.

This package is the library's public planning/execution surface::

    Session  -- owns cluster, DFS, catalog; entry point for load/plan/run
    LogicalPlan / PhysicalPlan -- the two explicit plan stages, both with
        stable ``explain()`` text
    ExecutionBackend -- protocol; TaskBackend and
        ``repro.parallel.ParallelBackend`` implement it, each a thin
        selection over the session's one schedule interpreter
    PlanCache / query_signature -- the epoch-keyed plan cache

Construct optimizers/executors only through this package.
"""

from .backends import ExecutionBackend, TaskBackend
from .cache import CachedPlan, PlanCache, query_signature
from .plans import LogicalPlan, PhysicalPlan
from .session import Session

__all__ = [
    "CachedPlan",
    "ExecutionBackend",
    "LogicalPlan",
    "PhysicalPlan",
    "PlanCache",
    "Session",
    "TaskBackend",
    "query_signature",
]
