"""Figure 12 — per-template TPC-H comparison.

For each of the seven join templates (q3, q5, q8, q10, q12, q14, q19) the
paper reports the average runtime of AdaptDB with hyper-join, AdaptDB with
shuffle join, Amoeba, and PREF, after the smooth repartitioning algorithm has
converged to a single tree on the template's join attribute.

The reproduction follows the same protocol: each system is warmed up with a
number of queries from the template (during which AdaptDB adapts its trees),
and the reported value is the mean modelled runtime over a set of measured
runs with fresh parameter values.
"""

from __future__ import annotations

import numpy as np

from ..baselines.pref import PREFBaseline
from ..baselines.runners import AdaptDBRunner, AdaptDBShuffleOnlyRunner, AmoebaBaseline
from ..common.rng import derive_rng, make_rng
from ..core.config import AdaptDBConfig
from ..workloads.tpch import TPCHGenerator
from ..workloads.tpch_queries import tables_for_templates, tpch_query
from .harness import ExperimentResult, runtime_seconds

#: The join templates shown in Figure 12 (q6 has no join and is excluded).
FIGURE12_TEMPLATES = ["q3", "q5", "q8", "q10", "q12", "q14", "q19"]

#: Systems compared in the figure, in legend order.
FIGURE12_SYSTEMS = [
    "AdaptDB w/ Hyper-Join",
    "AdaptDB w/ Shuffle Join",
    "Amoeba",
    "Predicate-based Reference Partitioning",
]


def _mean_runtime(results, runtime_model: str = "serial") -> float:
    if not results:
        return 0.0
    return float(np.mean([runtime_seconds(result, runtime_model) for result in results]))


def run(
    scale: float = 0.2,
    rows_per_block: int = 512,
    warmup_queries: int = 12,
    measured_queries: int = 5,
    templates: list[str] | None = None,
    seed: int = 1,
    runtime_model: str = "makespan",
) -> ExperimentResult:
    """Reproduce Figure 12.

    Args:
        scale: TPC-H generator scale.
        rows_per_block: Simulated block size in rows.
        warmup_queries: Queries run per template before measuring (lets the
            adaptive systems converge, as in the paper).
        measured_queries: Queries averaged for the reported runtime.
        templates: Subset of templates to run (defaults to all seven).
        seed: Seed controlling data generation and query parameters.
        runtime_model: ``"makespan"`` (the task schedule's completion time
            on the modelled cluster — the default, matching the paper's
            parallel deployment), ``"serial"`` (sum of per-task costs), or
            ``"simulated"`` (the schedule played out event by event,
            barrier and bandwidth stalls included).
    """
    templates = templates or list(FIGURE12_TEMPLATES)
    root_rng = make_rng(seed)
    table_names = tables_for_templates(templates)
    tables = list(TPCHGenerator(scale=scale, seed=seed).generate(table_names).values())
    config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)

    per_system: dict[str, list[float]] = {system: [] for system in FIGURE12_SYSTEMS}

    # PREF is a *static* layout chosen with knowledge of the whole workload:
    # one instance serves every template, and its replication factors come
    # from all join attributes appearing across the templates.
    hint_rng = derive_rng(root_rng, "pref-hint")
    pref_hint = [tpch_query(template, hint_rng) for template in templates]
    pref = PREFBaseline(tables, workload_hint=pref_hint, config=config)

    for template in templates:
        template_rng = derive_rng(root_rng, f"template:{template}")
        warmup = [tpch_query(template, template_rng) for _ in range(warmup_queries)]
        measured = [tpch_query(template, template_rng) for _ in range(measured_queries)]

        hyper = AdaptDBRunner(tables, config)
        hyper.run_workload(warmup)
        per_system["AdaptDB w/ Hyper-Join"].append(
            _mean_runtime(hyper.run_workload(measured), runtime_model)
        )

        shuffle_only = AdaptDBShuffleOnlyRunner(tables, config)
        shuffle_only.run_workload(warmup)
        per_system["AdaptDB w/ Shuffle Join"].append(
            _mean_runtime(shuffle_only.run_workload(measured), runtime_model)
        )

        amoeba = AmoebaBaseline(tables, config)
        amoeba.run_workload(warmup)
        per_system["Amoeba"].append(
            _mean_runtime(amoeba.run_workload(measured), runtime_model)
        )

        per_system["Predicate-based Reference Partitioning"].append(
            _mean_runtime(pref.run_workload(measured), runtime_model)
        )

    result = ExperimentResult(
        experiment_id="fig12",
        title="Execution time for queries on TPC-H",
        x_label="template",
        y_label="modelled runtime (seconds)",
    )
    labels = [template.upper() for template in templates]
    for system in FIGURE12_SYSTEMS:
        result.add_series(system, labels, per_system[system])

    hyper_series = result.series_by_label("AdaptDB w/ Hyper-Join")
    shuffle_series = result.series_by_label("AdaptDB w/ Shuffle Join")
    gains = [
        shuffle / hyper if hyper else float("inf")
        for hyper, shuffle in zip(hyper_series.y, shuffle_series.y)
    ]
    result.notes["mean_speedup_vs_shuffle"] = round(float(np.mean(gains)), 2)
    result.notes["max_speedup_vs_shuffle"] = round(float(np.max(gains)), 2)
    result.notes["runtime_model"] = runtime_model
    result.notes["paper_mean_speedup"] = "1.60x"
    result.notes["paper_max_speedup"] = "2.16x"
    return result


def main() -> None:  # pragma: no cover - CLI helper
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
