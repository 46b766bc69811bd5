"""repro — a reproduction of *AdaptDB: Adaptive Partitioning for Distributed Joins* (VLDB 2017).

The package implements the full AdaptDB stack on top of a simulated
cluster/HDFS substrate:

* ``repro.common``        — schemas, predicates, queries, deterministic RNG
* ``repro.cluster``       — simulated machines and the analytical cost model
* ``repro.storage``       — blocks, the distributed file system, tables, catalog
* ``repro.partitioning``  — Amoeba upfront trees and AdaptDB two-phase trees
* ``repro.adaptive``      — query window, smooth repartitioning, Amoeba refinement
* ``repro.join``          — hyper-join planning (overlap, grouping heuristics, ILP) and the join kernels
* ``repro.core``          — configuration, join planner and the cost-based optimizer
* ``repro.exec``          — plan compilation, scheduling, the one schedule interpreter (the only join executor) and ``simulate(schedule)``
* ``repro.api``           — :class:`Session`: the staged plan / lower / execute lifecycle
* ``repro.parallel``      — worker pool and shared-memory transport of the ``"parallel"`` backend
* ``repro.workloads``     — TPC-H and CMT generators plus the paper's workload patterns
* ``repro.baselines``     — Full Scan, full repartitioning, Amoeba-only, PREF, hand-tuned
* ``repro.experiments``   — one driver per figure of the paper's evaluation
"""

from .common import (
    JoinClause,
    Predicate,
    Query,
    ReproError,
    Schema,
    join_query,
    scan_query,
)
from .api import (
    LogicalPlan,
    PhysicalPlan,
    Session,
    TaskBackend,
)
from .core import AdaptDBConfig
from .exec import QueryResult
from .storage import ColumnTable

__version__ = "1.0.0"

__all__ = [
    "AdaptDBConfig",
    "ColumnTable",
    "JoinClause",
    "LogicalPlan",
    "PhysicalPlan",
    "Predicate",
    "Query",
    "QueryResult",
    "ReproError",
    "Schema",
    "Session",
    "TaskBackend",
    "__version__",
    "join_query",
    "scan_query",
]
