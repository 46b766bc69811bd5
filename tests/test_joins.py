"""Tests for joins: hyper-join planning, and both join methods run by the
session's task engine (the only join executor)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.cluster import Cluster
from repro.common.errors import PlanningError
from repro.common.predicates import between, le
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.core import AdaptDBConfig
from repro.join.hyperjoin import plan_hyper_join
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.block import Block
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable

from repro.testing import reference_join_count


def partitioning_tree(table: ColumnTable, key: str, co_partitioned: bool):
    """A tree over ``table``: range-partitioned on ``key``, or Amoeba-style."""
    num_leaves = max(1, math.ceil(table.num_rows / 256))
    if co_partitioned:
        depth = max(1, math.ceil(math.log2(num_leaves)))
        return TwoPhasePartitioner(key, []).build(
            table.sample(), table.num_rows, num_leaves=num_leaves, join_levels=depth
        )
    return UpfrontPartitioner([key, table.schema.column_names[1]], 256).build(
        table.sample(), table.num_rows, num_leaves=num_leaves
    )


@pytest.fixture
def join_setup():
    """Two co-partitionable tables loaded into a shared DFS."""
    rng = np.random.default_rng(11)
    left_schema = Schema.of(("key", DataType.INT), ("attr", DataType.INT))
    right_schema = Schema.of(("rkey", DataType.INT), ("rattr", DataType.INT))
    left = ColumnTable(
        "left", left_schema,
        {"key": rng.integers(0, 500, size=3000), "attr": rng.integers(0, 100, size=3000)},
    )
    right = ColumnTable(
        "right", right_schema,
        {"rkey": rng.integers(0, 500, size=1200), "rattr": rng.integers(0, 100, size=1200)},
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(5))

    def load(table: ColumnTable, key: str, co_partitioned: bool) -> StoredTable:
        tree = partitioning_tree(table, key, co_partitioned)
        return StoredTable.load(table, dfs, tree, rows_per_block=256)

    return {"dfs": dfs, "left": left, "right": right, "load": load}


@pytest.fixture
def run_join(join_setup):
    """Run ``left ⋈ right`` through a session pinned to one join method.

    Returns the join's ``JoinStats``, its planned decision and the session.
    """
    sessions: list[Session] = []

    def run(method, co_partitioned, predicates=None, buffer_blocks=4):
        config = AdaptDBConfig(
            rows_per_block=256, buffer_blocks=buffer_blocks, num_machines=4, seed=5,
            force_join_method=method, enable_smooth=False, enable_amoeba=False,
        )
        session = Session(config)
        sessions.append(session)
        for table, key in ((join_setup["left"], "key"), (join_setup["right"], "rkey")):
            session.load_table(table, tree=partitioning_tree(table, key, co_partitioned))
        query = join_query("left", "right", "key", "rkey", predicates=predicates or {})
        logical = session.plan(query, adapt=False)
        result = session.execute(session.lower(logical))
        return result.join_stats[0], logical.join_decisions[0], session

    yield run
    for session in sessions:
        session.close()


def expected_rows(join_setup, predicates=None) -> int:
    predicates = predicates or {}
    return reference_join_count(
        join_setup["left"], join_setup["right"], "key", "rkey",
        predicates.get("left"), predicates.get("right"),
    )


class TestShuffleJoin:
    def test_output_matches_reference(self, join_setup, run_join):
        stats, _, _ = run_join("shuffle", co_partitioned=False)
        assert stats.output_rows == expected_rows(join_setup)

    def test_predicates_applied_before_join(self, join_setup, run_join):
        predicates = {"left": [le("attr", 50)]}
        stats, _, _ = run_join("shuffle", co_partitioned=False, predicates=predicates)
        assert stats.output_rows == expected_rows(join_setup, predicates)

    def test_cost_follows_csj(self, run_join):
        stats, _, session = run_join("shuffle", co_partitioned=False)
        assert stats.cost_units == pytest.approx(
            session.cluster.cost_model.shuffle_join_cost(
                stats.build_blocks_read, stats.probe_blocks_read
            )
        )
        assert stats.shuffled_blocks == stats.total_blocks_read
        assert stats.method == "shuffle"

    def test_empty_blocks_are_not_counted(self, join_setup, run_join):
        """A decision naming empty blocks compiles map tasks for the others only."""
        _, _, session = run_join("shuffle", co_partitioned=False)
        left = session.table("left")
        tree = TwoPhasePartitioner("key", []).build(left.sample, left.total_rows, num_leaves=2)
        left.add_empty_tree(tree)
        query = join_query("left", "right", "key", "rkey")
        logical = session.plan(query, adapt=False)
        decision = replace(
            logical.join_decisions[0],
            build_table="left",
            probe_table="right",
            build_blocks=left.block_ids(),
            probe_blocks=session.table("right").block_ids(),
        )
        plan = replace(logical, join_decisions=[decision], cache_entry=None)
        stats = session.execute(session.lower(plan)).join_stats[0]
        assert len(left.block_ids()) > len(left.non_empty_block_ids())
        assert stats.build_blocks_read == len(left.non_empty_block_ids())
        assert stats.output_rows == expected_rows(join_setup)


class TestHyperJoinPlanning:
    def test_plan_excludes_empty_blocks(self, join_setup):
        left = join_setup["load"](join_setup["left"], "key", True)
        right = join_setup["load"](join_setup["right"], "rkey", True)
        tree = TwoPhasePartitioner("key", []).build(left.sample, left.total_rows, num_leaves=2)
        left.add_empty_tree(tree)
        plan = plan_hyper_join(
            join_setup["dfs"], left.block_ids(), right.block_ids(), "key", "rkey", 4
        )
        assert len(plan.build_block_ids) == len(left.non_empty_block_ids())

    def test_invalid_buffer_rejected(self, join_setup):
        with pytest.raises(PlanningError):
            plan_hyper_join(join_setup["dfs"], [], [], "key", "rkey", 0)

    def test_co_partitioned_multiplicity_near_one(self, join_setup):
        left = join_setup["load"](join_setup["left"], "key", True)
        right = join_setup["load"](join_setup["right"], "rkey", True)
        plan = plan_hyper_join(
            join_setup["dfs"], left.non_empty_block_ids(), right.non_empty_block_ids(),
            "key", "rkey", 4,
        )
        assert plan.probe_multiplicity <= 2.0

    def test_unpartitioned_build_side_has_high_multiplicity(self, join_setup):
        left = join_setup["load"](join_setup["left"], "key", False)
        right = join_setup["load"](join_setup["right"], "rkey", True)
        plan = plan_hyper_join(
            join_setup["dfs"], left.non_empty_block_ids(), right.non_empty_block_ids(),
            "key", "rkey", 1,
        )
        assert plan.probe_multiplicity > 1.5


class TestHyperJoinExecution:
    def test_output_matches_reference_and_shuffle(self, join_setup, run_join):
        hyper, _, _ = run_join("hyper", co_partitioned=True)
        shuffle, _, _ = run_join("shuffle", co_partitioned=True)
        assert hyper.output_rows == expected_rows(join_setup) == shuffle.output_rows

    def test_output_with_predicates(self, join_setup, run_join):
        predicates = {"left": [between("attr", 10, 60)], "right": [le("rattr", 80)]}
        stats, _, _ = run_join("hyper", co_partitioned=True, predicates=predicates)
        assert stats.output_rows == expected_rows(join_setup, predicates)

    def test_build_blocks_read_once(self, run_join):
        stats, decision, session = run_join("hyper", co_partitioned=True)
        build = session.table(decision.build_table)
        assert stats.build_blocks_read == len(build.non_empty_block_ids())
        assert stats.method == "hyper"
        assert stats.shuffled_blocks == 0

    def test_probe_reads_match_plan_estimate(self, run_join):
        stats, decision, _ = run_join("hyper", co_partitioned=True)
        assert stats.probe_blocks_read == decision.hyper_plan.estimated_probe_reads

    def test_cost_follows_equation_two(self, run_join):
        stats, _, session = run_join("hyper", co_partitioned=True)
        assert stats.cost_units == pytest.approx(
            session.cluster.cost_model.hyper_join_cost(
                stats.build_blocks_read, stats.probe_blocks_read
            )
        )

    def test_co_partitioned_hyper_join_cheaper_than_shuffle(self, run_join):
        hyper, _, _ = run_join("hyper", co_partitioned=True)
        shuffle, _, _ = run_join("shuffle", co_partitioned=True)
        assert hyper.cost_units < shuffle.cost_units

    def test_bigger_buffer_never_costs_more(self, run_join):
        costs = [
            run_join("hyper", co_partitioned=True, buffer_blocks=buffer_blocks)[0].cost_units
            for buffer_blocks in (1, 2, 4, 8)
        ]
        assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))


class TestNaNJoinKeys:
    """NaN join keys match nothing, and must not cost a join its valid rows."""

    @staticmethod
    def tables(nan_on_both_sides: bool) -> tuple[ColumnTable, ColumnTable]:
        rng = np.random.default_rng(1)
        left = {"k": rng.integers(0, 600, 3000).astype(float), "a": rng.integers(0, 100, 3000)}
        right = {"rk": rng.integers(0, 600, 1200).astype(float), "ra": rng.integers(0, 100, 1200)}
        left["k"][17] = np.nan
        if nan_on_both_sides:
            right["rk"][[5, 900]] = np.nan
        return (
            ColumnTable("L", Schema.of(("k", DataType.FLOAT), ("a", DataType.INT)), left),
            ColumnTable("R", Schema.of(("rk", DataType.FLOAT), ("ra", DataType.INT)), right),
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["hyper", "shuffle"])
    @pytest.mark.parametrize("nan_on_both_sides", [False, True])
    def test_forced_methods_match_reference(self, method, nan_on_both_sides):
        """Also after adaptation has migrated the NaN rows into a join tree."""
        left, right = self.tables(nan_on_both_sides)
        config = AdaptDBConfig(rows_per_block=256, seed=1, force_join_method=method, window_size=2)
        session = Session(config)
        session.load_table(left)
        session.load_table(right)
        rows = [session.run(join_query("L", "R", "k", "rk")).output_rows for _ in range(3)]
        for name in ("L", "R"):
            session.table(name).audit_cached_statistics()
        session.close()
        assert rows == [reference_join_count(left, right, "k", "rk")] * 3

    def test_all_nan_column_has_no_range(self):
        block = Block(0, "L", {"k": np.array([np.nan, np.nan]), "a": np.array([1, 2])})
        assert block.find_range("k") is None
        assert block.find_range("a") == (1.0, 2.0)
        block.append_rows({"k": np.array([np.nan, 3.0]), "a": np.array([0, 9])})
        assert block.find_range("k") == (3.0, 3.0)
        assert block.find_range("a") == (0.0, 9.0)
