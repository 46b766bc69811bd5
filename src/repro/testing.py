"""Helpers shared by the test and benchmark suites.

These used to live in the suites' ``conftest.py`` files and were imported as
``from conftest import ...``, which only works while pytest inserts the
collected directory into ``sys.path``.  Under ``--import-mode=importlib``
(required so ``tests/`` and ``benchmarks/`` can be collected together without
their conftest modules shadowing each other) conftest modules are not
importable, so anything tests need by name lives here, inside the installed
package.
"""

from __future__ import annotations

import numpy as np

from .common.predicates import between, rows_matching
from .common.query import Query, join_query, scan_query
from .storage.table import ColumnTable


def reference_join_count(
    left: ColumnTable,
    right: ColumnTable,
    left_column: str,
    right_column: str,
    left_predicates=None,
    right_predicates=None,
) -> int:
    """Ground-truth equi-join cardinality computed directly on the raw tables."""
    left_mask = rows_matching(left.columns, list(left_predicates or []))
    right_mask = rows_matching(right.columns, list(right_predicates or []))
    left_keys = left.columns[left_column][left_mask]
    right_keys = right.columns[right_column][right_mask]
    if len(left_keys) == 0 or len(right_keys) == 0:
        return 0
    left_unique, left_counts = np.unique(left_keys, return_counts=True)
    right_unique, right_counts = np.unique(right_keys, return_counts=True)
    common, left_idx, right_idx = np.intersect1d(
        left_unique, right_unique, assume_unique=True, return_indices=True
    )
    return int((left_counts[left_idx] * right_counts[right_idx]).sum())


# --------------------------------------------------------------------- #
# Deterministic query grids (no RNG, fixed predicate windows)
# --------------------------------------------------------------------- #
def fig08_scan_queries(num_queries: int = 4) -> list[Query]:
    """Fig08-style selective scans over ``lineitem`` (quantity windows)."""
    queries = []
    for index in range(num_queries):
        low = 1 + (index * 11) % 35
        queries.append(
            scan_query(
                "lineitem",
                [between("l_quantity", low, low + 12)],
                template=f"fig8-scan-{index}",
            )
        )
    return queries


def fig13_join_queries(num_queries: int = 3) -> list[Query]:
    """Fig13-style ``lineitem ⋈ orders`` joins with shifting selections."""
    queries = []
    for index in range(num_queries):
        low = 5 + (index * 9) % 30
        queries.append(
            join_query(
                "lineitem",
                "orders",
                "l_orderkey",
                "o_orderkey",
                predicates={"lineitem": [between("l_quantity", low, low + 20)]},
                template=f"fig13-join-{index}",
            )
        )
    return queries


def run_once(benchmark, function, *args, **kwargs):
    """Execute ``function`` exactly once under pytest-benchmark timing.

    The experiment drivers are deterministic simulations, so a single round
    is enough; this keeps the full benchmark suite fast while still recording
    wall-clock timings for every figure.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
