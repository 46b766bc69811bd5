"""Figure 7 — varying data locality.

The paper measures a map-only Hadoop job while artificially lowering the
fraction of HDFS blocks that are local to their reader and finds that even at
27 % locality the job is only ~18 % slower, justifying the cost model's
assumption that remote reads cost roughly the same as local reads (an 8 %
penalty, following [3]).

The reproduction compiles the same map-only scan into per-machine tasks with
the execution engine's scheduler, so the per-machine block counts (and hence
the job's makespan) come from actual locality-aware placement; the paper's
four locality levels are then applied to the most loaded machine's reads to
produce the response-time series.
"""

from __future__ import annotations

from ..cluster.costmodel import CostModel
from ..common.query import scan_query
from ..api.session import Session
from ..core.config import AdaptDBConfig
from ..exec.scheduler import Scheduler, compile_plan
from ..exec.tasks import straggler_factor
from ..workloads.tpch import TPCHGenerator
from .harness import ExperimentResult

#: The locality levels reported in Figure 7.
LOCALITY_LEVELS = [1.00, 0.71, 0.46, 0.27]


def run(scale: float = 0.3, rows_per_block: int = 512, seed: int = 1) -> ExperimentResult:
    """Reproduce Figure 7: scan response time at decreasing data locality."""
    tables = TPCHGenerator(scale=scale, seed=seed).generate(["lineitem"])
    config = AdaptDBConfig(
        rows_per_block=rows_per_block, enable_smooth=False, enable_amoeba=False, seed=seed
    )
    db = Session(config)
    stored = db.load_table(tables["lineitem"])
    num_blocks = len(stored.non_empty_block_ids())
    cost_model: CostModel = db.cluster.cost_model

    # Compile and schedule the map-only scan; the makespan (blocks on the
    # most loaded machine) is what the job actually waits for.
    plan = db.plan(scan_query("lineitem"), adapt=False)
    compiled = compile_plan(plan, db.catalog, db.cluster)
    schedule = Scheduler(db.cluster.num_machines).schedule(compiled.tasks)

    runtimes = [
        max(cost_model.scan_cost(load, locality) for load in schedule.machine_loads)
        for locality in LOCALITY_LEVELS
    ]

    result = ExperimentResult(
        experiment_id="fig7",
        title="Varying data locality (map-only scan)",
        x_label="locality",
        y_label="modelled response time (seconds)",
    )
    result.add_series(
        "response_time", [f"{int(level * 100)}%" for level in LOCALITY_LEVELS], runtimes
    )
    slowdown = runtimes[-1] / runtimes[0] - 1.0 if runtimes[0] else 0.0
    result.notes["slowdown_at_27pct"] = f"{slowdown * 100:.1f}%"
    result.notes["paper_slowdown_at_27pct"] = "~18%"
    result.notes["blocks_scanned"] = num_blocks
    result.notes["scan_tasks"] = len(compiled.tasks)
    result.notes["makespan_blocks"] = schedule.makespan
    result.notes["straggler_factor"] = round(straggler_factor(schedule.machine_loads), 3)
    result.notes["scheduler_locality"] = round(schedule.locality_fraction, 3)
    return result


def main() -> None:  # pragma: no cover - CLI helper
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
