"""Optimal block grouping via mixed integer programming (Section 4.1.2).

The paper formulates Minimal Partitioning (Problem 1) as an ILP:

* ``x[i, k] ∈ {0, 1}`` — build block ``r_i`` is assigned to partition ``p_k``,
* ``y[j, k] ∈ {0, 1}`` — probe block ``s_j`` must be read for partition ``p_k``,
* minimize ``Σ_{j,k} y[j, k]`` subject to
    - each partition holds at most ``B`` blocks,
    - each build block is assigned to exactly one partition,
    - ``y[j, k] ≥ x[i, k]`` whenever ``r_i`` overlaps ``s_j``.

The paper solved the program with GLPK; here it is solved with
``scipy.optimize.milp`` (HiGHS).  As in the paper, the ILP is a baseline for
evaluating the heuristic (Figure 17) rather than a production code path — its
runtime grows quickly with the number of blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..common.errors import PlanningError
from .grouping import Grouping, grouping_cost


@dataclass
class ILPSolution:
    """Result of solving the minimal-partitioning ILP.

    Attributes:
        grouping: The optimal grouping (or best found within the time limit).
        objective: The ILP objective value (total probe-block reads).
        solve_seconds: Wall-clock time spent in the solver.
        optimal: Whether the solver proved optimality.
    """

    grouping: Grouping
    objective: float
    solve_seconds: float
    optimal: bool


def ilp_grouping(
    overlap: np.ndarray,
    budget: int,
    time_limit_seconds: float | None = None,
) -> ILPSolution:
    """Solve Problem 1 exactly with a mixed-integer program.

    Args:
        overlap: Boolean overlap matrix ``V`` of shape (n build, m probe).
        budget: Maximum build blocks per partition (``B``).
        time_limit_seconds: Optional solver time limit; when hit, the best
            incumbent is returned with ``optimal=False``.

    Returns:
        An :class:`ILPSolution`.

    Raises:
        PlanningError: if the inputs are malformed or no feasible solution
            exists (which cannot happen for a well-formed overlap matrix).
    """
    if overlap.ndim != 2:
        raise PlanningError("overlap matrix must be two-dimensional")
    if budget < 1:
        raise PlanningError("memory budget must allow at least one block per group")

    num_build, num_probe = overlap.shape
    if num_build == 0:
        return ILPSolution(Grouping(groups=[]), 0.0, 0.0, True)

    num_partitions = math.ceil(num_build / budget)
    num_x = num_build * num_partitions
    num_y = num_probe * num_partitions
    num_vars = num_x + num_y

    def x_index(i: int, k: int) -> int:
        return i * num_partitions + k

    def y_index(j: int, k: int) -> int:
        return num_x + j * num_partitions + k

    # Objective: minimize sum of y.
    objective = np.zeros(num_vars)
    objective[num_x:] = 1.0

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    row_counter = 0

    # (1) capacity: sum_i x[i,k] <= budget, for every partition k.
    for k in range(num_partitions):
        for i in range(num_build):
            rows.append(row_counter)
            cols.append(x_index(i, k))
            data.append(1.0)
        lower.append(-np.inf)
        upper.append(float(budget))
        row_counter += 1

    # (2) assignment: sum_k x[i,k] == 1, for every build block i.
    for i in range(num_build):
        for k in range(num_partitions):
            rows.append(row_counter)
            cols.append(x_index(i, k))
            data.append(1.0)
        lower.append(1.0)
        upper.append(1.0)
        row_counter += 1

    # (3) coverage: y[j,k] - x[i,k] >= 0 whenever r_i overlaps s_j.
    overlap_pairs = np.argwhere(overlap)
    for i, j in overlap_pairs:
        for k in range(num_partitions):
            rows.extend([row_counter, row_counter])
            cols.extend([y_index(int(j), k), x_index(int(i), k)])
            data.extend([1.0, -1.0])
            lower.append(0.0)
            upper.append(np.inf)
            row_counter += 1

    constraint_matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(row_counter, num_vars)
    )
    constraints = LinearConstraint(constraint_matrix, np.array(lower), np.array(upper))
    bounds = Bounds(np.zeros(num_vars), np.ones(num_vars))
    integrality = np.ones(num_vars)

    options: dict[str, float] = {}
    if time_limit_seconds is not None:
        options["time_limit"] = float(time_limit_seconds)

    # Measured solver wall time is reported on the ILPSolution for operators;
    # it never feeds a planning decision or a fingerprint.
    started = time.perf_counter()
    result = milp(
        c=objective,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options or None,
    )
    elapsed = time.perf_counter() - started

    if result.x is None:
        raise PlanningError(f"ILP solver failed: {result.message}")

    assignment = result.x[:num_x].reshape(num_build, num_partitions)
    groups: list[list[int]] = [[] for _ in range(num_partitions)]
    for i in range(num_build):
        k = int(np.argmax(assignment[i]))
        groups[k].append(i)
    groups = [group for group in groups if group]

    grouping = Grouping(groups=groups)
    grouping.probe_reads_per_group = grouping_cost(overlap, groups)
    return ILPSolution(
        grouping=grouping,
        objective=float(grouping.total_probe_reads),
        solve_seconds=elapsed,
        optimal=bool(result.status == 0),
    )
