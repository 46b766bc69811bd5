"""Tests for the comparison systems in repro.baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AdaptDBRunner,
    AdaptDBShuffleOnlyRunner,
    AmoebaBaseline,
    BestGuessFixedBaseline,
    FullRepartitioningBaseline,
    FullScanBaseline,
    PREFBaseline,
)
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.experiments.harness import RUNTIME_MODELS, runtime_seconds
from repro.workloads.cmt import CMTGenerator
from repro.workloads.tpch_queries import tpch_query


@pytest.fixture(scope="module")
def tables(tpch_tables_module):
    return tpch_tables_module


@pytest.fixture(scope="module")
def tpch_tables_module():
    from repro.workloads.tpch import TPCHGenerator

    return TPCHGenerator(scale=0.08, seed=7).generate(["lineitem", "orders", "part"])


@pytest.fixture(scope="module")
def config():
    return AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=5)


def q12_workload(count=10, seed=1):
    rng = make_rng(seed)
    return [tpch_query("q12", rng) for _ in range(count)]


class TestRunnersProduceConsistentAnswers:
    def test_all_systems_agree_on_query_results(self, tables, config):
        """Every comparison system must return the same join cardinalities."""
        queries = q12_workload(4)
        table_list = list(tables.values())
        runners = [
            FullScanBaseline(table_list, config),
            AmoebaBaseline(table_list, config),
            AdaptDBRunner(table_list, config),
            AdaptDBShuffleOnlyRunner(table_list, config),
            FullRepartitioningBaseline(table_list, config),
            PREFBaseline(table_list, workload_hint=queries, config=config),
            BestGuessFixedBaseline(table_list, queries, config),
        ]
        outputs = []
        for runner in runners:
            results = runner.run_workload(queries)
            outputs.append([r.output_rows for r in results])
        for other in outputs[1:]:
            assert other == outputs[0]


class TestFullScan:
    def test_never_adapts_and_always_shuffles(self, tables, config):
        runner = FullScanBaseline(list(tables.values()), config)
        results = runner.run_workload(q12_workload(5))
        assert all(r.blocks_repartitioned == 0 for r in results)
        assert all(set(r.join_methods) == {"shuffle"} for r in results)

    def test_reads_every_block(self, tables, config):
        runner = FullScanBaseline(list(tables.values()), config)
        result = runner.run_workload(q12_workload(1))[0]
        lineitem_blocks = len(runner.session.table("lineitem").non_empty_block_ids())
        orders_blocks = len(runner.session.table("orders").non_empty_block_ids())
        assert result.blocks_read == lineitem_blocks + orders_blocks


class TestAdaptDBRunners:
    def test_adaptdb_beats_full_scan_after_convergence(self, tables, config):
        queries = q12_workload(12)
        adaptdb = AdaptDBRunner(list(tables.values()), config).run_workload(queries)
        fullscan = FullScanBaseline(list(tables.values()), config).run_workload(queries)
        adaptive_tail = sum(r.cost_units for r in adaptdb[-4:])
        fullscan_tail = sum(r.cost_units for r in fullscan[-4:])
        assert adaptive_tail < fullscan_tail

    def test_shuffle_only_variant_never_uses_hyper_join(self, tables, config):
        runner = AdaptDBShuffleOnlyRunner(list(tables.values()), config)
        results = runner.run_workload(q12_workload(6))
        assert all("hyper" not in r.join_methods for r in results)

    def test_hyper_variant_faster_than_shuffle_variant(self, tables, config):
        queries = q12_workload(12)
        hyper = AdaptDBRunner(list(tables.values()), config).run_workload(queries)
        shuffle = AdaptDBShuffleOnlyRunner(list(tables.values()), config).run_workload(queries)
        assert sum(r.cost_units for r in hyper[-4:]) < sum(r.cost_units for r in shuffle[-4:])


class TestAmoebaBaseline:
    def test_amoeba_never_builds_join_trees(self, tables, config):
        runner = AmoebaBaseline(list(tables.values()), config)
        runner.run_workload(q12_workload(8))
        assert runner.session.table("lineitem").tree_for_join_attribute("l_orderkey") is None

    def test_amoeba_uses_shuffle_joins(self, tables, config):
        runner = AmoebaBaseline(list(tables.values()), config)
        results = runner.run_workload(q12_workload(3))
        assert all(set(r.join_methods) == {"shuffle"} for r in results if r.join_methods)


class TestFullRepartitioning:
    def test_triggers_one_expensive_reorganization(self, tables, config):
        runner = FullRepartitioningBaseline(list(tables.values()), config)
        results = runner.run_workload(q12_workload(10))
        spikes = [r for r in results if r.blocks_repartitioned > 0]
        assert len(spikes) >= 1
        # The spike query is far more expensive than the converged queries.
        assert max(r.cost_units for r in spikes) > 2 * min(r.cost_units for r in results[-3:])

    def test_converges_to_co_partitioned_layout(self, tables, config):
        runner = FullRepartitioningBaseline(list(tables.values()), config)
        runner.run_workload(q12_workload(10))
        lineitem = runner.session.table("lineitem")
        assert lineitem.num_trees == 1
        assert lineitem.tree_for_join_attribute("l_orderkey") is not None

    def test_rewrite_is_charged_under_every_runtime_model(self, tables, config):
        """The query that triggers a rewrite is slower than the same query on
        the already-repartitioned layout by the rewrite's per-machine share,
        whichever runtime model reads the result."""
        runner = FullRepartitioningBaseline(list(tables.values()), config)
        query = q12_workload(1)[0]
        rewriting, settled = runner.run_workload([query, query])
        assert rewriting.blocks_repartitioned > 0
        assert settled.blocks_repartitioned == 0
        share = (
            runner.session.cluster.cost_model.repartition_cost(
                rewriting.blocks_repartitioned
            )
            / config.num_machines
        )
        for model in RUNTIME_MODELS:
            charged = runtime_seconds(rewriting, model) - runtime_seconds(settled, model)
            assert charged == pytest.approx(share), model

    def test_spike_is_taller_than_adaptdbs_worst_query(self, tables, config):
        queries = q12_workload(10)
        repart = FullRepartitioningBaseline(list(tables.values()), config).run_workload(queries)
        smooth = AdaptDBRunner(list(tables.values()), config).run_workload(queries)
        assert max(r.cost_units for r in repart) > max(r.cost_units for r in smooth)


class TestPREF:
    def test_layout_is_static(self, tables, config):
        queries = q12_workload(6)
        runner = PREFBaseline(list(tables.values()), workload_hint=queries, config=config)
        results = runner.run_workload(queries)
        assert all(r.blocks_repartitioned == 0 for r in results)

    def test_replication_factors_follow_join_attributes(self, tables, config):
        rng = make_rng(2)
        hint = [tpch_query("q12", rng), tpch_query("q14", rng)]
        runner = PREFBaseline(list(tables.values()), workload_hint=hint, config=config)
        assert runner.replication_factors["lineitem"] == 2.0
        assert runner.replication_factors["orders"] == 1.0

    def test_costs_inflated_by_replication(self, tables, config):
        rng = make_rng(2)
        hint = [tpch_query("q12", rng), tpch_query("q14", rng)]
        queries = q12_workload(3)
        with_replication = PREFBaseline(
            list(tables.values()), workload_hint=hint, config=config
        ).run_workload(queries)
        without_replication = PREFBaseline(
            list(tables.values()), workload_hint=[], config=config
        ).run_workload(queries)
        assert sum(r.cost_units for r in with_replication) > sum(
            r.cost_units for r in without_replication
        )

    def test_replication_inflates_every_runtime_model(self, tables, config):
        rng = make_rng(2)
        hint = [tpch_query("q12", rng), tpch_query("q14", rng)]
        query = q12_workload(1)[0]
        replicated = PREFBaseline(list(tables.values()), workload_hint=hint, config=config)
        plain = PREFBaseline(list(tables.values()), workload_hint=[], config=config)
        factor = replicated._query_replication_factor(query)
        assert factor == 1.5  # lineitem is referenced through two join paths
        inflated, baseline = replicated.run_workload([query])[0], plain.run_workload([query])[0]
        for model in RUNTIME_MODELS:
            assert runtime_seconds(inflated, model) == pytest.approx(
                factor * runtime_seconds(baseline, model)
            ), model

    def test_joins_are_co_partitioned(self, tables, config):
        queries = q12_workload(3)
        runner = PREFBaseline(list(tables.values()), workload_hint=queries, config=config)
        results = runner.run_workload(queries)
        assert all(set(r.join_methods) == {"hyper"} for r in results)


class TestBestGuessFixed:
    def test_trees_match_workload_join_attributes(self, tables, config):
        queries = q12_workload(5)
        runner = BestGuessFixedBaseline(list(tables.values()), queries, config)
        assert runner.session.table("lineitem").tree_for_join_attribute("l_orderkey") is not None
        assert runner.session.table("orders").tree_for_join_attribute("o_orderkey") is not None

    def test_layout_never_changes(self, tables, config):
        queries = q12_workload(5)
        runner = BestGuessFixedBaseline(list(tables.values()), queries, config)
        results = runner.run_workload(queries)
        assert all(r.blocks_repartitioned == 0 for r in results)

    def test_unjoined_table_gets_upfront_tree(self, cmt_tables, config):
        generator_queries = CMTGenerator(scale=0.05, seed=7).query_trace(20)
        runner = BestGuessFixedBaseline(list(cmt_tables.values()), generator_queries, config)
        # trip_latest is rarely joined; whatever tree it gets must hold all rows.
        assert runner.session.table("trip_latest").total_rows == cmt_tables["trip_latest"].num_rows

    def test_adaptdb_converges_towards_fixed_layout(self, tables, config):
        queries = q12_workload(14)
        fixed = BestGuessFixedBaseline(list(tables.values()), queries, config).run_workload(queries)
        adaptive = AdaptDBRunner(list(tables.values()), config).run_workload(queries)
        fixed_tail = np.mean([r.cost_units for r in fixed[-4:]])
        adaptive_tail = np.mean([r.cost_units for r in adaptive[-4:]])
        assert adaptive_tail <= 2.0 * fixed_tail
