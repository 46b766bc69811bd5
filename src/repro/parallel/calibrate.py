"""Sim-vs-real calibration: does the simulator predict measured makespans?

The PR-4 discrete-event simulator predicts a schedule's completion time in
modelled cost units; the parallel backend measures the same schedule's
wall-clock time on real cores.  This harness runs both over a workload and
reports:

* a fitted ``to_seconds`` scale — the least-squares ``seconds per cost
  unit`` mapping simulator predictions onto measurements (what
  ``CostModel.seconds_per_block`` *should* be on this machine),
* the per-query relative error after applying that scale,
* a per-stage (task-kind) breakdown: each kind's share of predicted cost
  vs. its share of measured wall time, which localises model error to
  scans, shuffle maps, reduces or hyper groups,
* a fingerprint cross-check: every query is replayed through the
  in-process task backend and must produce a bit-identical
  ``QueryResult.fingerprint()``.

Repartition tasks are stripped from schedules before simulation so the
prediction covers exactly the query work the parallel backend executes
(adaptation rewrites blocks in the parent and is not dispatched).

Wall-clock reads stay inside the parallel backend's marked helper; this
module only consumes the measured ``wall_seconds`` it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..common.predicates import between
from ..common.query import Query, join_query, scan_query
from ..exec.tasks import TaskKind, TaskSchedule
from ..sim.backend import SimBackend
from .backend import ParallelBackend

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an import
    # cycle: repro.api.session registers ParallelBackend from this package)
    from ..api.session import Session

#: Task kinds that appear in query schedules (repartitions are stripped).
QUERY_KINDS = ("scan", "shuffle_map", "shuffle_reduce", "hyper_group")


# --------------------------------------------------------------------- #
# Calibration workloads (deterministic: no RNG, fixed predicate grids)
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


# --------------------------------------------------------------------- #
# Report records
# --------------------------------------------------------------------- #
@dataclass
class QueryCalibration:
    """One query's predicted vs. measured makespan."""

    template: str
    predicted_units: float
    predicted_seconds: float
    measured_seconds: float
    fingerprint_matches_tasks: bool

    def as_dict(self) -> dict:
        return {
            "template": self.template,
            "predicted_units": round(self.predicted_units, 6),
            "predicted_seconds": round(self.predicted_seconds, 6),
            "measured_seconds": round(self.measured_seconds, 6),
            "fingerprint_matches_tasks": self.fingerprint_matches_tasks,
        }


@dataclass
class CalibrationReport:
    """Workload-level calibration outcome."""

    workload: str
    num_workers: int
    repeats: int
    queries: list[QueryCalibration] = field(default_factory=list)
    #: kind -> {"predicted_units", "measured_seconds",
    #:          "predicted_share", "measured_share", "share_error"}
    per_stage: dict[str, dict[str, float]] = field(default_factory=dict)
    fitted_seconds_per_unit: float = 0.0
    mean_relative_error: float = 0.0

    @property
    def all_fingerprints_match(self) -> bool:
        return all(q.fingerprint_matches_tasks for q in self.queries)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "num_workers": self.num_workers,
            "repeats": self.repeats,
            "fitted_seconds_per_unit": round(self.fitted_seconds_per_unit, 9),
            "mean_relative_error": round(self.mean_relative_error, 6),
            "all_fingerprints_match": self.all_fingerprints_match,
            "per_stage": {
                kind: {key: round(value, 6) for key, value in stats.items()}
                for kind, stats in self.per_stage.items()
            },
            "queries": [q.as_dict() for q in self.queries],
        }


def apply_calibration(session: "Session", report: CalibrationReport) -> float:
    """Feed a report's fitted scale into the session's cost model.

    After running :func:`calibrate` on this very machine, apply the fit so
    subsequent modelled runtimes are machine-calibrated (a fit kept from an
    earlier run goes in through ``AdaptDBConfig.seconds_per_block``).  A
    degenerate fit (zero or negative scale, e.g. from an empty workload) is
    ignored.

    Returns:
        The cost model's ``seconds_per_block`` after the update.
    """
    if report.fitted_seconds_per_unit > 0:
        session.cluster.cost_model = replace(
            session.cluster.cost_model,
            seconds_per_block=report.fitted_seconds_per_unit,
        )
    return session.cluster.cost_model.seconds_per_block


def strip_repartitions(schedule: TaskSchedule) -> TaskSchedule:
    """A copy of ``schedule`` without repartition tasks (query work only)."""
    return TaskSchedule(
        num_machines=schedule.num_machines,
        assignments={
            machine_id: [
                task for task in placed if task.kind is not TaskKind.REPARTITION
            ]
            for machine_id, placed in schedule.assignments.items()
        },
    )


# --------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------- #
def calibrate(
    session: "Session",
    queries: list[Query],
    repeats: int = 3,
    warmup: int = 1,
    workload: str = "workload",
) -> CalibrationReport:
    """Predict (simulator) and measure (parallel backend) every query.

    The session's parallel backend is selected for the measured runs; the
    task backend replays each physical plan once for the fingerprint
    cross-check, and the simulated backend's single-query simulator
    produces the predictions.  Measurements take the fastest of
    ``repeats`` runs after ``warmup`` throwaway executions (which also pin
    the shared-memory segments, so pin cost is excluded).
    """
    parallel = session.backends["parallel"]
    assert isinstance(parallel, ParallelBackend)
    sim = session.backends["simulated"]
    assert isinstance(sim, SimBackend)
    seconds_per_unit_model = session.cluster.cost_model.seconds_per_block

    report = CalibrationReport(
        workload=workload, num_workers=parallel.num_workers, repeats=repeats
    )
    kind_pred: dict[str, float] = {kind: 0.0 for kind in QUERY_KINDS}
    kind_meas: dict[str, float] = {kind: 0.0 for kind in QUERY_KINDS}

    for query in queries:
        physical = session.lower(session.plan(query, adapt=False))
        stripped = strip_repartitions(physical.schedule)
        predicted_seconds = sim.simulate_schedule(stripped).finished_at
        predicted_units = (
            predicted_seconds / seconds_per_unit_model
            if seconds_per_unit_model
            else predicted_seconds
        )

        session.use_backend("tasks")
        tasks_fingerprint = session.execute(physical).fingerprint()

        session.use_backend("parallel")
        for _ in range(warmup):
            session.execute(physical)
        measured = float("inf")
        parallel_fingerprint: tuple = ()
        best_records = list(parallel.last_task_records)
        for _ in range(max(repeats, 1)):
            result = session.execute(physical)
            if result.wall_seconds < measured:
                measured = result.wall_seconds
                parallel_fingerprint = result.fingerprint()
                best_records = list(parallel.last_task_records)
        for record in best_records:
            if record.kind in kind_meas:
                kind_meas[record.kind] += record.wall_seconds
        for task in stripped.tasks:
            if task.kind.value in kind_pred:
                kind_pred[task.kind.value] += task.cost_units

        report.queries.append(
            QueryCalibration(
                template=query.template or str(query.query_id),
                predicted_units=predicted_units,
                predicted_seconds=predicted_seconds,
                measured_seconds=measured,
                fingerprint_matches_tasks=(parallel_fingerprint == tasks_fingerprint),
            )
        )

    # Least-squares fit of measured = scale * predicted_units.
    numerator = sum(q.predicted_units * q.measured_seconds for q in report.queries)
    denominator = sum(q.predicted_units**2 for q in report.queries)
    scale = numerator / denominator if denominator else 0.0
    report.fitted_seconds_per_unit = scale
    errors = [
        abs(scale * q.predicted_units - q.measured_seconds) / q.measured_seconds
        for q in report.queries
        if q.measured_seconds > 0
    ]
    report.mean_relative_error = sum(errors) / len(errors) if errors else 0.0

    total_pred = sum(kind_pred.values()) or 1.0
    total_meas = sum(kind_meas.values()) or 1.0
    for kind in QUERY_KINDS:
        predicted_share = kind_pred[kind] / total_pred
        measured_share = kind_meas[kind] / total_meas
        report.per_stage[kind] = {
            "predicted_units": kind_pred[kind],
            "measured_seconds": kind_meas[kind],
            "predicted_share": predicted_share,
            "measured_share": measured_share,
            "share_error": measured_share - predicted_share,
        }
    return report
