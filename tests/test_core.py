"""Tests for repro.core: config, planner classification, optimizer, executor."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.common.errors import PlanningError
from repro.common.predicates import between, eq
from repro.common.query import join_query, scan_query
from repro.core import AdaptDBConfig
from repro.core.planner import JoinCase, JoinMethod, classify_join
from repro.workloads.tpch_queries import tpch_query


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = AdaptDBConfig()
        assert config.window_size == 10
        assert config.join_level_fraction == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows_per_block": 0},
            {"buffer_blocks": 0},
            {"window_size": 0},
            {"join_level_fraction": 1.5},
            {"force_join_method": "magic"},
            {"join_levels_override": -1},
            {"num_machines": 0},
            # A count must be an int, and a bool is not a count.
            {"buffer_blocks": 4.5},
            {"num_machines": 4.0},
            {"rows_per_block": 512.5},
            {"window_size": True},
            {"num_workers": 2.0},
            {"join_levels_override": 1.5},
            {"persistence": "mmap", "buffer_bytes": 4096.0},
            {"num_machines": True},
            {"persistence": "mmap", "buffer_bytes": True},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(PlanningError):
            AdaptDBConfig(**kwargs)


class TestPlannerClassification:
    def make_db(self, tpch_tables, **config_kwargs):
        config = AdaptDBConfig(rows_per_block=512, seed=1, **config_kwargs)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        return db

    def test_freshly_loaded_tables_are_not_partitioned_for_the_join(self, tpch_tables):
        db = self.make_db(tpch_tables)
        clause = join_query("lineitem", "orders", "l_orderkey", "o_orderkey").joins[0]
        classification = classify_join(db.catalog, clause)
        assert classification.case is JoinCase.NOT_PARTITIONED

    def test_converged_tables_are_co_partitioned(self, tpch_tables):
        db = self.make_db(tpch_tables)
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        for _ in range(14):
            db.run(query)
        classification = classify_join(db.catalog, query.joins[0])
        assert classification.case is JoinCase.CO_PARTITIONED

    def test_mid_migration_is_mixed(self, tpch_tables):
        db = self.make_db(tpch_tables)
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        db.run(query)  # first query: trees created, little data migrated
        classification = classify_join(db.catalog, query.joins[0])
        assert classification.case in (JoinCase.MIXED, JoinCase.CO_PARTITIONED)
        assert classification.left_on_join_attribute


class TestOptimizer:
    def test_unknown_table_rejected(self, small_db):
        with pytest.raises(PlanningError):
            small_db.plan(scan_query("missing_table"))

    def test_scan_plan_contains_pruned_blocks(self, small_db):
        lineitem = small_db.table("lineitem")
        predicate = between("l_shipdate", 0, 200)
        plan = small_db.plan(scan_query("lineitem", [predicate]), adapt=False)
        assert plan.scan_tables == ["lineitem"]
        assert set(plan.scan_blocks["lineitem"]).issubset(set(lineitem.non_empty_block_ids()))

    def test_pruning_disabled_reads_every_block(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, enable_pruning=False, seed=1)
        db = Session(config)
        db.load_table(tpch_tables["lineitem"])
        predicate = between("l_shipdate", 0, 10)
        plan = db.plan(scan_query("lineitem", [predicate]), adapt=False)
        assert len(plan.scan_blocks["lineitem"]) == len(
            db.table("lineitem").non_empty_block_ids()
        )

    def test_join_decision_records_cost_estimates(self, small_db):
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        plan = small_db.plan(query, adapt=False)
        decision = plan.join_decisions[0]
        assert decision.estimated_shuffle_cost > 0
        assert decision.estimated_hyper_cost > 0
        assert decision.method in (JoinMethod.HYPER, JoinMethod.SHUFFLE)

    def test_cost_based_choice_picks_cheaper_method(self, small_db):
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        plan = small_db.plan(query, adapt=False)
        decision = plan.join_decisions[0]
        if decision.estimated_hyper_cost <= decision.estimated_shuffle_cost:
            assert decision.method is JoinMethod.HYPER
        else:
            assert decision.method is JoinMethod.SHUFFLE

    def test_forced_shuffle(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, force_join_method="shuffle", seed=1)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        plan = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
        assert plan.join_decisions[0].method is JoinMethod.SHUFFLE

    def test_forced_hyper(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, force_join_method="hyper", seed=1)
        db = Session(config)
        for name in ("lineitem", "orders"):
            db.load_table(tpch_tables[name])
        plan = db.plan(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False)
        assert plan.join_decisions[0].method is JoinMethod.HYPER

    def test_adaptation_disabled_on_request(self, small_db):
        plan = small_db.plan(tpch_query("q12", small_db.rng), adapt=False)
        assert plan.adaptation.blocks_repartitioned == 0
        assert plan.adaptation.trees_created == 0

    def test_build_side_selection_minimizes_cost(self, small_db):
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        plan = small_db.plan(query, adapt=False)
        decision = plan.join_decisions[0]
        assert {decision.build_table, decision.probe_table} == {"lineitem", "orders"}


class TestExecutor:
    def test_scan_query_counts_matching_rows(self, small_db, tpch_tables):
        predicate = eq("l_returnflag", 1)
        result = small_db.run(scan_query("lineitem", [predicate]), adapt=False)
        expected = int((tpch_tables["lineitem"].columns["l_returnflag"] == 1).sum())
        assert result.output_rows == expected
        assert result.blocks_read > 0
        assert result.join_methods == []

    def test_join_query_produces_stats(self, small_db):
        result = small_db.run(tpch_query("q12", small_db.rng), adapt=False)
        assert result.join_methods and result.join_methods[0] in ("hyper", "shuffle")
        assert result.cost_units > 0
        assert result.runtime_seconds == pytest.approx(
            small_db.cluster.cost_model.to_seconds(result.cost_units)
        )

    def test_adaptation_cost_charged_to_query(self, small_db):
        with_adapt = small_db.run(tpch_query("q12", small_db.rng))
        assert with_adapt.blocks_repartitioned > 0
        assert with_adapt.trees_created >= 1

    def test_runtime_decreases_after_convergence(self, small_db):
        rng = small_db.rng
        results = [small_db.run(tpch_query("q12", rng)) for _ in range(14)]
        assert min(r.cost_units for r in results[-3:]) < results[0].cost_units

    def test_used_hyper_join_property(self, small_db):
        rng = small_db.rng
        for _ in range(12):
            result = small_db.run(tpch_query("q12", rng))
        assert result.used_hyper_join

    def test_multi_join_query_executes_every_clause(self, small_config, tpch_tables):
        db = Session(small_config)
        for name in ("lineitem", "orders", "customer"):
            db.load_table(tpch_tables[name])
        result = db.run(tpch_query("q3", db.rng), adapt=False)
        assert len(result.join_methods) == 2
        assert len(result.join_stats) == 2
