"""Figure 8 — shuffle-join runtime vs. dataset size.

The paper joins ``lineitem`` and ``orders`` at four dataset sizes (175 GB to
580 GB) and observes that shuffle-join runtime grows linearly with the data
volume, validating the block-count-based cost model.  The reproduction runs
the same join at four proportional scales and reports the modelled runtime;
the linearity of the series is quantified with the coefficient of
determination of a least-squares line fit.
"""

from __future__ import annotations

import numpy as np

from ..common.query import join_query
from ..api.session import Session
from ..core.config import AdaptDBConfig
from ..workloads.tpch import TPCHGenerator
from .harness import ExperimentResult, parallelism_notes

#: Relative dataset sizes mirroring the paper's 175G / 320G / 453G / 580G points.
RELATIVE_SIZES = [0.30, 0.55, 0.78, 1.00]


def run(scale: float = 0.4, rows_per_block: int = 512, seed: int = 1) -> ExperimentResult:
    """Reproduce Figure 8: shuffle-join runtime at four dataset sizes."""
    query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey", template="fig8")
    runtimes: list[float] = []
    makespans: list[float] = []
    results = []
    labels: list[str] = []

    for relative in RELATIVE_SIZES:
        tables = TPCHGenerator(scale=scale * relative, seed=seed).generate(
            ["lineitem", "orders"]
        )
        config = AdaptDBConfig(
            rows_per_block=rows_per_block,
            enable_smooth=False,
            enable_amoeba=False,
            force_join_method="shuffle",
            seed=seed,
        )
        db = Session(config)
        for table in tables.values():
            db.load_table(table)
        result = db.run(query, adapt=False)
        results.append(result)
        runtimes.append(result.runtime_seconds)
        makespans.append(result.makespan_cost_units)
        labels.append(f"{relative:.2f}x")

    sizes = np.asarray(RELATIVE_SIZES)
    times = np.asarray(runtimes)
    slope, intercept = np.polyfit(sizes, times, 1)
    predicted = slope * sizes + intercept
    residual = float(((times - predicted) ** 2).sum())
    total = float(((times - times.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total else 1.0

    experiment = ExperimentResult(
        experiment_id="fig8",
        title="Shuffle-join runtime vs dataset size (lineitem ⋈ orders)",
        x_label="relative dataset size",
        y_label="modelled runtime (seconds)",
    )
    experiment.add_series("running_time", labels, runtimes)
    experiment.add_series("makespan_time", labels, makespans)
    experiment.notes["linear_fit_r_squared"] = round(r_squared, 4)
    experiment.notes["paper_observation"] = "runtime increases linearly with dataset size"
    experiment.notes.update(parallelism_notes(results))
    return experiment


def main() -> None:  # pragma: no cover - CLI helper
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
