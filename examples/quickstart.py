"""Quickstart: the staged session lifecycle on a TPC-H join workload.

Run with::

    python examples/quickstart.py

The script loads a small synthetic TPC-H dataset into a :class:`repro.Session`,
shows the explicit Query -> LogicalPlan -> PhysicalPlan -> QueryResult stages
(including ``explain()`` output), then runs 15 instances of query template
q12 (lineitem ⋈ orders) and prints how the per-query cost drops as smooth
repartitioning migrates blocks — and how the epoch-keyed plan cache starts
serving repeated templates once adaptation has converged.
"""

from __future__ import annotations

from repro import AdaptDBConfig, Session
from repro.common.rng import make_rng
from repro.workloads import TPCHGenerator, tpch_query


def main() -> None:
    config = AdaptDBConfig(
        rows_per_block=1024,   # stand-in for the paper's 64 MB HDFS blocks
        buffer_blocks=8,       # hyper-join hash-table budget, in blocks
        window_size=10,        # the paper's default query window
    )
    session = Session(config)

    print("Generating and loading TPC-H tables ...")
    tables = TPCHGenerator(scale=0.25).generate(["lineitem", "orders", "customer"])
    for table in tables.values():
        stored = session.load_table(table)
        print(f"  loaded {table.name}: {table.num_rows} rows in {len(stored.block_ids())} blocks")

    # The staged lifecycle, one stage at a time.
    rng = make_rng(42)
    query = tpch_query("q12", rng)
    logical = session.plan(query)        # Query -> LogicalPlan (adapts, then plans)
    physical = session.lower(logical)    # LogicalPlan -> PhysicalPlan (tasks + schedule)
    result = session.execute(physical)   # PhysicalPlan -> QueryResult

    print("\nFirst query, explained:")
    print(physical.explain_full())
    print(f"-> {result.output_rows} rows, {result.runtime_seconds:.2f} model-s "
          f"(makespan {result.makespan_cost_units:.2f} s)")

    print("\nRunning 15 more q12 queries (lineitem ⋈ orders on orderkey):")
    print(f"{'#':>3} {'join':>8} {'blocks read':>12} {'repartitioned':>14} "
          f"{'runtime (model s)':>18} {'plan':>7}")
    for index in range(15):
        result = session.run(tpch_query("q12", rng))   # all three stages in one call
        join = result.join_methods[0] if result.join_methods else "scan"
        plan_source = "cached" if result.plan_cache_hit else "cold"
        print(
            f"{index + 1:>3} {join:>8} {result.blocks_read:>12} "
            f"{result.blocks_repartitioned:>14} {result.runtime_seconds:>18.2f} "
            f"{plan_source:>7}"
        )

    # Each q12 instance above drew fresh predicate parameters, so the exact
    # plan cache missed (the epoch-keyed hyper-plan memo still hit).  A
    # *repeated* query — a dashboard refresh, a fig13-style template — is
    # served from the cache once adaptation has converged:
    print("\nRepeating one query verbatim:")
    repeated = tpch_query("q12", rng)
    for attempt in range(3):
        result = session.run(repeated)
        plan_source = "cached" if result.plan_cache_hit else "cold"
        print(f"  run {attempt + 1}: {plan_source:>7} plan, "
              f"planning {result.planning_seconds * 1e6:.0f} us, "
              f"{result.output_rows} rows")

    print("\nFinal partitioning state:")
    print(session.describe())
    print("\nPlanning caches:", session.cache_stats())


if __name__ == "__main__":
    main()
