"""Hyper-join internals: overlap matrices, block grouping, and the ILP optimum.

This example works at the level of the join machinery rather than the full
session lifecycle.  It reproduces Example 1 from the paper's introduction
(grouping three build blocks under a two-block memory budget), then runs the
bottom-up heuristic, the naive first-fit grouping, and the ILP on a larger
synthetic overlap structure, and finally runs the same TPC-H join through a
session twice, pinned to hyper-join and then to shuffle join, to compare
their I/O.

Run with::

    python examples/hyperjoin_vs_shuffle.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Session
from repro.common import join_query
from repro.core import AdaptDBConfig
from repro.join import bottom_up_grouping, compute_overlap_matrix, first_fit_grouping, ilp_grouping
from repro.workloads import TPCHGenerator


def example_1_from_the_paper() -> None:
    """The 3x3 example of Section 1: grouping changes the probe cost from 6 to 5."""
    print("Example 1 (Section 1 of the paper)")
    overlap = np.array(
        [
            [1, 1, 0],  # A1 joins B1, B2
            [1, 1, 1],  # A2 joins B1, B2, B3
            [0, 1, 1],  # A3 joins B2, B3
        ],
        dtype=bool,
    )
    bad = first_fit_grouping(overlap[[0, 2, 1]], budget=2)       # {A1, A3}, {A2}
    good = bottom_up_grouping(overlap, budget=2)                  # {A1, A2}, {A3}
    print(f"  grouping {{A1,A3}},{{A2}} reads {bad.total_probe_reads} blocks of B")
    print(f"  bottom-up grouping reads {good.total_probe_reads} blocks of B "
          f"(groups: {good.groups})\n")


def grouping_algorithms_demo(num_build: int = 24, num_probe: int = 12, budget: int = 4) -> None:
    """Compare first-fit, bottom-up, and ILP groupings on a random overlap structure."""
    print(f"Grouping {num_build} build blocks against {num_probe} probe blocks (budget {budget})")
    rng = np.random.default_rng(3)
    centers = rng.uniform(0, 100, size=num_build)
    build_ranges = [(float(c), float(c + 15)) for c in centers]
    probe_edges = np.linspace(0, 115, num_probe + 1)
    probe_ranges = [(float(lo), float(hi)) for lo, hi in zip(probe_edges, probe_edges[1:])]
    overlap = compute_overlap_matrix(build_ranges, probe_ranges)

    naive = first_fit_grouping(overlap, budget)
    greedy = bottom_up_grouping(overlap, budget)
    optimal = ilp_grouping(overlap, budget, time_limit_seconds=10.0)
    print(f"  first-fit  : {naive.total_probe_reads} probe-block reads")
    print(f"  bottom-up  : {greedy.total_probe_reads} probe-block reads")
    print(f"  ILP optimum: {optimal.grouping.total_probe_reads} probe-block reads "
          f"(solved in {optimal.solve_seconds * 1000:.1f} ms, optimal={optimal.optimal})\n")


def real_join_demo() -> None:
    """Run lineitem ⋈ orders as a hyper-join and as a shuffle join and compare I/O."""
    print("lineitem ⋈ orders on generated TPC-H data")
    tables = TPCHGenerator(scale=0.2).generate(["lineitem", "orders"])
    query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
    stats = {}
    for method in ("hyper", "shuffle"):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=8, enable_smooth=False,
                               enable_amoeba=False, force_join_method=method)
        with Session(config) as db:
            for table in tables.values():
                db.load_table(table)
            stats[method] = db.run(query).join_stats[0]
    hyper, shuffle = stats["hyper"], stats["shuffle"]
    print(f"  hyper-join : cost={hyper.cost_units:7.1f}  "
          f"build reads={hyper.build_blocks_read}  probe reads={hyper.probe_blocks_read}  "
          f"C_HyJ={hyper.probe_multiplicity:.2f}  output rows={hyper.output_rows}")
    print(f"  shuffle    : cost={shuffle.cost_units:7.1f}  "
          f"blocks read={shuffle.total_blocks_read}  shuffled={shuffle.shuffled_blocks}  "
          f"output rows={shuffle.output_rows}")
    assert hyper.output_rows == shuffle.output_rows, "both joins must produce identical results"


def main() -> None:
    example_1_from_the_paper()
    grouping_algorithms_demo()
    real_join_demo()


if __name__ == "__main__":
    main()
