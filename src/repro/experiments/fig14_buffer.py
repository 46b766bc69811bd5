"""Figure 14 — effect of the hyper-join memory buffer size.

The paper joins ``lineitem`` and ``orders`` without predicates, builds hash
tables over ``lineitem``, and varies the memory buffer (64 MB to 16 GB),
reporting (a) runtime and (b) the number of ``orders`` blocks read.  A bigger
buffer lets each hash table cover more build blocks, so each probe block is
shared by more of them and re-read less often — until the sharing saturates.

In the reproduction the buffer is expressed directly in build-side blocks
(the paper's buffer divided by the 64 MB block size), and every sweep point
runs the join through the session's task engine: the logical plan's join is
pinned to a hyper-join with lineitem as the build side, grouped at that
point's budget, and lowered into one ``HYPER_GROUP`` task per group.  The
sweep drives the *real* bounded-memory storage tier: the session persists
via ``persistence="mmap"``, every block is spilled at a checkpoint, and each
sweep point restarts cold with the block buffer's byte budget scaled to the
same number of blocks the hyper-join groups over (counted in the key-column
bytes the join reads of a block, which is what the buffer charges).  Alongside the modelled
series the experiment therefore reports *measured* buffer traffic — faults
(blocks actually materialized from the spill files), hits and evictions —
which shrink/grow with the buffer exactly as the paper's curve does.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import replace

from ..api.session import Session
from ..common.query import join_query
from ..core.config import AdaptDBConfig
from ..core.planner import JoinMethod
from ..join.hyperjoin import plan_hyper_join
from ..partitioning.two_phase import TwoPhasePartitioner
from ..storage.table import ColumnTable
from ..workloads.tpch import TPCHGenerator
from .harness import ExperimentResult

#: Buffer sizes in build-side blocks (mirrors the paper's 64 MB .. 16 GB sweep).
DEFAULT_BUFFER_SIZES = [1, 2, 4, 8, 16, 32]


def _two_phase_tree(table: ColumnTable, key: str, rows_per_block: int, join_level_fraction: float):
    num_leaves = max(1, math.ceil(table.num_rows / rows_per_block))
    partitioner = TwoPhasePartitioner(
        join_attribute=key,
        selection_attributes=[name for name in table.schema.column_names if name != key],
        rows_per_block=rows_per_block,
        join_level_fraction=join_level_fraction,
    )
    return partitioner.build(table.sample(), total_rows=table.num_rows, num_leaves=num_leaves)


def run(
    scale: float = 0.3,
    rows_per_block: int = 256,
    buffer_sizes: list[int] | None = None,
    join_level_fraction: float = 0.5,
    seed: int = 1,
) -> ExperimentResult:
    """Reproduce Figure 14: runtime and probe-block reads vs. buffer size.

    Each sweep point evicts everything resident (a cold cache), re-budgets
    the block buffer to ``(buffer_blocks + 1)`` blocks' worth of the bytes
    the join reads of a block (its key column: the buffer charges resident
    columns only) and runs the same lineitem-orders hyper-join, so the
    measured fault counts are the bounded-memory analogue of the paper's
    "orders blocks read" axis.
    """
    buffer_sizes = buffer_sizes or list(DEFAULT_BUFFER_SIZES)
    tables = TPCHGenerator(scale=scale, seed=seed).generate(["lineitem", "orders"])
    config = AdaptDBConfig(
        rows_per_block=rows_per_block,
        enable_smooth=False,
        enable_amoeba=False,
        seed=seed,
        persistence="mmap",
    )
    db = Session(config)
    lineitem = db.load_table(
        tables["lineitem"],
        tree=_two_phase_tree(tables["lineitem"], "l_orderkey", rows_per_block, join_level_fraction),
    )
    orders = db.load_table(
        tables["orders"],
        tree=_two_phase_tree(tables["orders"], "o_orderkey", rows_per_block, join_level_fraction),
    )
    # Spill every block once so each sweep point can start cold (unloaded)
    # and fault blocks back in through the buffer as the join touches them.
    db.checkpoint()
    assert db.persist is not None
    buffer = db.persist.buffer
    # A block the join reads is charged the bytes of its key column alone
    # (residency is per column), so the budget is counted in those.
    key_bytes = [
        db.dfs.peek_block(block_id).num_rows
        * table.schema.column(key).dtype.numpy_dtype.itemsize
        for table, key in ((lineitem, "l_orderkey"), (orders, "o_orderkey"))
        for block_id in table.block_ids()
    ]
    mean_read_bytes = max(1, sum(key_bytes) // max(1, len(key_bytes)))
    logical = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
    build_ids, probe_ids = lineitem.non_empty_block_ids(), orders.non_empty_block_ids()

    runtimes: list[float] = []
    probe_blocks: list[float] = []
    faults: list[float] = []
    hits: list[float] = []
    evictions: list[float] = []
    for buffer_blocks in buffer_sizes:
        # +1: one probe block is streamed against the resident build blocks.
        buffer.set_budget((buffer_blocks + 1) * mean_read_bytes)
        buffer.drop_resident()
        buffer.reset_counters()
        decision = replace(
            logical.join_decisions[0],
            method=JoinMethod.HYPER,
            build_table="lineitem",
            probe_table="orders",
            build_blocks=build_ids,
            probe_blocks=probe_ids,
            hyper_plan=plan_hyper_join(
                db.dfs, build_ids, probe_ids, "l_orderkey", "o_orderkey", buffer_blocks
            ),
        )
        # No cache entry: lowering must not serve the previous point's schedule.
        plan = replace(logical, join_decisions=[decision], cache_entry=None)
        stats = db.execute(db.lower(plan)).join_stats[0]
        runtimes.append(db.cluster.cost_model.to_seconds(stats.cost_units))
        probe_blocks.append(stats.probe_blocks_read)
        faults.append(buffer.faults)
        hits.append(buffer.hits)
        evictions.append(buffer.evictions)

    result = ExperimentResult(
        experiment_id="fig14",
        title="Effect of varying the hyper-join memory buffer",
        x_label="buffer size (# build blocks)",
        y_label="modelled runtime (seconds) / probe blocks read",
    )
    result.add_series("running_time", buffer_sizes, runtimes)
    result.add_series("orders_blocks_read", buffer_sizes, probe_blocks)
    result.add_series("buffer_faults", buffer_sizes, faults)
    result.add_series("buffer_hits", buffer_sizes, hits)
    result.add_series("buffer_evictions", buffer_sizes, evictions)
    result.notes["paper_observation"] = "improves with buffer size, flattens once sharing saturates"
    result.notes["reduction"] = (
        round(probe_blocks[0] / probe_blocks[-1], 2) if probe_blocks[-1] else float("inf")
    )
    result.notes["measured_fault_reduction"] = (
        round(faults[0] / faults[-1], 2) if faults[-1] else float("inf")
    )
    result.notes["blocks_spilled"] = db.persist.store.spills
    storage_root = db.storage_root
    db.close()
    if storage_root is not None:
        shutil.rmtree(storage_root, ignore_errors=True)
    return result


def main() -> None:  # pragma: no cover - CLI helper
    print(run().to_table())


if __name__ == "__main__":  # pragma: no cover
    main()
