"""Integration tests for a whole AdaptDB instance (one ``Session``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.common.errors import StorageError
from repro.common.query import join_query
from repro.core import AdaptDBConfig
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.storage.dfs import DEFAULT_REPLICATION
from repro.workloads.tpch_queries import tpch_query

from repro.testing import reference_join_count


class TestLoading:
    def test_load_registers_table(self, small_config, tpch_tables):
        db = Session(small_config)
        stored = db.load_table(tpch_tables["orders"])
        assert db.table("orders") is stored
        assert stored.total_rows == tpch_tables["orders"].num_rows

    def test_double_load_rejected(self, small_config, tpch_tables):
        db = Session(small_config)
        db.load_table(tpch_tables["orders"])
        with pytest.raises(StorageError):
            db.load_table(tpch_tables["orders"])

    def test_load_with_custom_tree(self, small_config, tpch_tables):
        db = Session(small_config)
        table = tpch_tables["orders"]
        tree = TwoPhasePartitioner("o_orderkey", ["o_orderdate"]).build(
            table.sample(), total_rows=table.num_rows, num_leaves=4
        )
        stored = db.load_table(table, tree=tree)
        assert stored.tree_for_join_attribute("o_orderkey") is not None

    def test_load_with_partition_attributes_subset(self, small_config, tpch_tables):
        db = Session(small_config)
        stored = db.load_table(
            tpch_tables["orders"], partition_attributes=["o_orderdate", "o_custkey"]
        )
        counts = stored.trees[0].attribute_counts()
        assert set(counts).issubset({"o_orderdate", "o_custkey"})

    def test_blocks_are_replicated_across_machines(self, small_config, tpch_tables):
        db = Session(small_config)
        stored = db.load_table(tpch_tables["orders"])
        for block_id in stored.block_ids():
            assert len(db.dfs.replicas_of(block_id)) == min(
                DEFAULT_REPLICATION, small_config.num_machines
            )

    def test_describe_covers_all_tables(self, small_db):
        text = small_db.describe()
        for name in ("lineitem", "orders", "part"):
            assert name in text


class TestQueryExecution:
    def test_join_results_match_reference(self, small_db, tpch_tables):
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        result = small_db.run(query, adapt=False)
        expected = reference_join_count(
            tpch_tables["lineitem"], tpch_tables["orders"], "l_orderkey", "o_orderkey"
        )
        assert result.output_rows == expected

    def test_join_results_stable_under_adaptation(self, small_db, tpch_tables):
        """Adaptation must never change query answers, only their cost."""
        def query_template():
            return join_query("lineitem", "orders", "l_orderkey", "o_orderkey")

        expected = reference_join_count(
            tpch_tables["lineitem"], tpch_tables["orders"], "l_orderkey", "o_orderkey"
        )
        for _ in range(10):
            assert small_db.run(query_template()).output_rows == expected

    def test_run_workload_returns_one_result_per_query(self, small_db):
        rng = small_db.rng
        queries = [tpch_query("q12", rng) for _ in range(5)]
        results = small_db.run_workload(queries)
        assert len(results) == 5
        assert [r.query.query_id for r in results] == [q.query_id for q in queries]

    def test_determinism_across_instances(self, tpch_tables):
        """Two AdaptDB instances with the same seed produce identical cost series."""
        def run_once():
            config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=99)
            db = Session(config)
            for name in ("lineitem", "orders"):
                db.load_table(tpch_tables[name])
            rng = np.random.default_rng(5)
            queries = [tpch_query("q12", rng) for _ in range(6)]
            return [round(r.cost_units, 6) for r in db.run_workload(queries)]

        assert run_once() == run_once()

    def test_adaptation_reduces_steady_state_cost(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=11)
        adaptive = Session(config)
        static = Session(AdaptDBConfig(
            rows_per_block=512, buffer_blocks=4, seed=11,
            enable_smooth=False, enable_amoeba=False, force_join_method="shuffle",
        ))
        for name in ("lineitem", "orders"):
            adaptive.load_table(tpch_tables[name])
            static.load_table(tpch_tables[name])
        rng = np.random.default_rng(1)
        queries = [tpch_query("q12", rng) for _ in range(15)]
        adaptive_results = adaptive.run_workload(queries)
        static_results = static.run_workload(queries)
        adaptive_tail = sum(r.cost_units for r in adaptive_results[-5:])
        static_tail = sum(r.cost_units for r in static_results[-5:])
        assert adaptive_tail < static_tail

    def test_scan_only_template_q6(self, small_db, tpch_tables):
        query = tpch_query("q6", small_db.rng)
        result = small_db.run(query)
        assert result.join_methods == []
        assert result.blocks_read <= len(small_db.table("lineitem").non_empty_block_ids())
