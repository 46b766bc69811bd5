"""Figure 13 — per-query runtime on the switching and shifting TPC-H workloads.

The paper runs 160-query (switching) and 140-query (shifting) workloads over
the eight templates and compares three systems:

* *Full Scan* — no partitioning pruning, shuffle joins,
* *Repartitioning* — complete repartitioning triggered when half of the
  query window uses a new join attribute (tall spikes, then fast queries),
* *AdaptDB* — smooth repartitioning (moderate overhead spread over many
  queries, converging to the same fast steady state).
"""

from __future__ import annotations

from ..baselines.full_repartitioning import FullRepartitioningBaseline
from ..baselines.runners import AdaptDBRunner, FullScanBaseline
from ..common.query import Query
from ..common.rng import make_rng
from ..core.config import AdaptDBConfig
from ..workloads.generators import shifting_workload, switching_workload
from ..workloads.tpch import TPCHGenerator
from ..workloads.tpch_queries import EVALUATED_TEMPLATES, tables_for_templates
from .harness import ExperimentResult, runtime_series

#: Systems compared in Figure 13, in legend order.
FIGURE13_SYSTEMS = ["Full Scan", "Repartitioning", "AdaptDB"]


def _run_systems(
    tables, queries: list[Query], config: AdaptDBConfig, runtime_model: str = "serial"
) -> dict[str, list[float]]:
    """Run the three comparison systems on the same query sequence."""
    runners = [
        FullScanBaseline(tables, config),
        FullRepartitioningBaseline(tables, config),
        AdaptDBRunner(tables, config),
    ]
    runtimes: dict[str, list[float]] = {}
    for runner in runners:
        results = runner.run_workload(queries)
        runtimes[runner.name] = runtime_series(results, runtime_model)
    return runtimes


def _build_result(
    experiment_id: str, title: str, runtimes: dict[str, list[float]]
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label="query #",
        y_label="modelled runtime (seconds)",
    )
    num_queries = len(next(iter(runtimes.values())))
    x = list(range(1, num_queries + 1))
    for system in FIGURE13_SYSTEMS:
        result.add_series(system, x, runtimes[system])

    full_scan_total = sum(runtimes["Full Scan"])
    adaptdb_total = sum(runtimes["AdaptDB"])
    result.notes["adaptdb_total"] = round(adaptdb_total, 1)
    result.notes["full_scan_total"] = round(full_scan_total, 1)
    result.notes["improvement_vs_full_scan"] = (
        round(full_scan_total / adaptdb_total, 2) if adaptdb_total else float("inf")
    )
    result.notes["repartitioning_max_spike"] = round(max(runtimes["Repartitioning"]), 1)
    result.notes["adaptdb_max_spike"] = round(max(runtimes["AdaptDB"]), 1)
    result.notes["paper_observation"] = "AdaptDB spreads repartitioning cost; ~2x+ over full scan"
    return result


def run_switching(
    scale: float = 0.15,
    rows_per_block: int = 512,
    queries_per_template: int = 8,
    templates: list[str] | None = None,
    seed: int = 1,
    runtime_model: str = "makespan",
) -> ExperimentResult:
    """Reproduce Figure 13(a), the switching workload.

    The defaults use fewer queries per template than the paper's 20 to keep
    the simulation quick; pass ``queries_per_template=20`` and the full
    template list for the paper-sized 160-query run.  ``runtime_model``
    selects the reported per-query runtime (``"makespan"`` — the task
    schedule's completion time, the default, matching the paper's parallel
    deployment — ``"serial"``, or ``"simulated"``, the schedule played out
    event by event with barrier and bandwidth stalls); every model is a read
    of the same results.
    """
    templates = templates or list(EVALUATED_TEMPLATES)
    rng = make_rng(seed)
    tables = list(
        TPCHGenerator(scale=scale, seed=seed).generate(tables_for_templates(templates)).values()
    )
    queries = switching_workload(templates, queries_per_template, rng)
    config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)
    runtimes = _run_systems(tables, queries, config, runtime_model)
    result = _build_result(
        "fig13a", "Execution time for the switching workload on TPC-H", runtimes
    )
    result.notes["runtime_model"] = runtime_model
    return result


def run_shifting(
    scale: float = 0.15,
    rows_per_block: int = 512,
    transition_length: int = 8,
    templates: list[str] | None = None,
    seed: int = 1,
    runtime_model: str = "makespan",
) -> ExperimentResult:
    """Reproduce Figure 13(b), the shifting workload.

    Pass ``transition_length=20`` and the full template list for the
    paper-sized 140-query run.
    """
    templates = templates or list(EVALUATED_TEMPLATES)
    rng = make_rng(seed)
    tables = list(
        TPCHGenerator(scale=scale, seed=seed).generate(tables_for_templates(templates)).values()
    )
    queries = shifting_workload(templates, transition_length, rng)
    config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)
    runtimes = _run_systems(tables, queries, config, runtime_model)
    result = _build_result(
        "fig13b", "Execution time for the shifting workload on TPC-H", runtimes
    )
    result.notes["runtime_model"] = runtime_model
    return result


def main() -> None:  # pragma: no cover - CLI helper
    for result in (run_switching(), run_shifting()):
        print(result.to_table())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
