"""The staged query-lifecycle API.

This package is the library's public planning/execution surface::

    Session  -- owns cluster, DFS, catalog; entry point for load/plan/run
    LogicalPlan / PhysicalPlan -- the two explicit plan stages, both with
        stable ``explain()`` text
    TaskBackend -- the ``"tasks"`` backend; with
        ``repro.parallel.ParallelBackend`` (``"parallel"``) one of the two
        backends a session picks by name, each a thin selection over the
        session's one schedule interpreter
    PlanCache / query_signature -- the epoch-keyed plan cache

Construct optimizers/executors only through this package.
"""

from .backends import TaskBackend
from .cache import CachedPlan, PlanCache, query_signature
from .plans import LogicalPlan, PhysicalPlan
from .session import Session

__all__ = [
    "CachedPlan",
    "LogicalPlan",
    "PhysicalPlan",
    "PlanCache",
    "Session",
    "TaskBackend",
    "query_signature",
]
