"""Figure 18 — the CMT real-workload experiment.

The paper runs a 103-query production trace over the (synthetic) CMT dataset
and compares per-query latency of four systems:

* *Full Scan* — no pruning, shuffle joins,
* *Repartitioning* — one complete reorganization triggered early in the trace
  (a ~2 945 s spike at query 5),
* *"Best Guess" Fixed Partitioning* — a hand-tuned static layout built from
  the attributes of the full trace,
* *AdaptDB* — smooth repartitioning, which converges to roughly the
  hand-tuned layout within the first ~10 queries.
"""

from __future__ import annotations

from ..baselines.fixed import BestGuessFixedBaseline
from ..baselines.full_repartitioning import FullRepartitioningBaseline
from ..baselines.runners import AdaptDBRunner, FullScanBaseline
from ..core.config import AdaptDBConfig
from ..workloads.cmt import CMTGenerator
from .harness import ExperimentResult, runtime_series

#: Systems compared in Figure 18, in legend order.
FIGURE18_SYSTEMS = [
    "Full Scan",
    "Repartitioning",
    '"Best Guess" Fixed Partitioning',
    "AdaptDB",
]


def run(
    scale: float = 0.2,
    rows_per_block: int = 512,
    num_queries: int = 103,
    seed: int = 1,
    runtime_model: str = "makespan",
) -> ExperimentResult:
    """Reproduce Figure 18: per-query runtime of the four systems on the CMT trace.

    ``runtime_model`` selects the reported per-query runtime (``"makespan"``
    — the task schedule's completion time, the default, matching the
    paper's parallel deployment — ``"serial"``, or ``"simulated"``, the
    schedule played out event by event with barrier and bandwidth stalls).
    """
    generator = CMTGenerator(scale=scale, seed=seed)
    tables = list(generator.generate().values())
    queries = generator.query_trace(num_queries)
    config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)

    runners = [
        FullScanBaseline(tables, config),
        FullRepartitioningBaseline(tables, config),
        BestGuessFixedBaseline(tables, queries, config),
        AdaptDBRunner(tables, config),
    ]

    result = ExperimentResult(
        experiment_id="fig18",
        title="Execution time on the CMT dataset (103-query trace)",
        x_label="query #",
        y_label="modelled runtime (seconds)",
    )
    totals: dict[str, float] = {}
    for runner in runners:
        results = runner.run_workload(queries)
        runtimes = runtime_series(results, runtime_model)
        result.add_series(runner.name, list(range(1, len(runtimes) + 1)), runtimes)
        totals[runner.name] = sum(runtimes)

    adaptdb_total = totals["AdaptDB"]
    result.notes["full_scan_total"] = round(totals["Full Scan"], 1)
    result.notes["adaptdb_total"] = round(adaptdb_total, 1)
    result.notes["fixed_total"] = round(totals['"Best Guess" Fixed Partitioning'], 1)
    result.notes["repartitioning_total"] = round(totals["Repartitioning"], 1)
    result.notes["improvement_vs_full_scan"] = (
        round(totals["Full Scan"] / adaptdb_total, 2) if adaptdb_total else float("inf")
    )
    result.notes["repartitioning_max_spike"] = round(
        result.series_by_label("Repartitioning").maximum, 1
    )
    result.notes["adaptdb_max_spike"] = round(result.series_by_label("AdaptDB").maximum, 1)
    result.notes["runtime_model"] = runtime_model
    result.notes["paper_observation"] = (
        "AdaptDB roughly halves total time vs full scan and converges to the hand-tuned layout"
    )
    return result


def main() -> None:  # pragma: no cover - CLI helper
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
