"""Tests for the staged query-lifecycle API (repro.api).

Covers the session lifecycle (plan / lower / execute), the epoch-keyed plan
cache (hits on repeated templates, invalidation on exactly the mutated
tables, bit-identical cached results and explain text), partition-state
epochs on ``StoredTable``, and the pluggable execution backends (every one
a selection over the session's one schedule interpreter, whose join
accounting is checked against the plan's own arithmetic and the reference
join).
"""

from __future__ import annotations

import pytest

from repro.api import (
    PlanCache,
    Session,
    TaskBackend,
    query_signature,
)
from repro.api.cache import CachedPlan
from repro.common.errors import PlanningError
from repro.common.predicates import between, ge
from repro.common.query import Query, join_query, scan_query
from repro.core import AdaptDBConfig
from repro.core.planner import JoinMethod
from repro.exec import simulate
from repro.experiments.harness import runtime_seconds
from repro.parallel import ParallelBackend
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.testing import reference_join_count
from repro.workloads.tpch_queries import tpch_query


def q12_like(low: float = 0.0, high: float = 400.0) -> Query:
    """A deterministic two-table join with a fixed-parameter predicate."""
    return join_query(
        "lineitem",
        "orders",
        "l_orderkey",
        "o_orderkey",
        predicates={"lineitem": [between("l_shipdate", low, high)]},
    )


@pytest.fixture
def session(small_config, tpch_tables):
    s = Session(config=small_config)
    for name in ("lineitem", "orders", "part"):
        s.load_table(tpch_tables[name])
    return s


class TestQuerySignature:
    def test_equal_queries_share_signature_despite_query_ids(self):
        assert query_signature(q12_like()) == query_signature(q12_like())

    def test_signature_ignores_predicate_order(self):
        predicates = [between("l_shipdate", 0, 10), ge("l_quantity", 5)]
        first = scan_query("lineitem", predicates)
        second = scan_query("lineitem", list(reversed(predicates)))
        assert query_signature(first) == query_signature(second)

    def test_signature_distinguishes_predicate_values(self):
        assert query_signature(q12_like(0, 10)) != query_signature(q12_like(0, 20))

    def test_signature_distinguishes_join_shape(self):
        plain = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        assert query_signature(plain) != query_signature(q12_like())

    def test_signature_ignores_template_label(self):
        labelled = join_query(
            "lineitem", "orders", "l_orderkey", "o_orderkey", template="q12"
        )
        plain = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        assert query_signature(labelled) == query_signature(plain)


class TestStoredTableEpochs:
    def test_load_establishes_epoch(self, session):
        assert session.table("lineitem").epoch == 1

    def test_add_empty_tree_bumps(self, session):
        table = session.table("lineitem")
        before = table.epoch
        tree = TwoPhasePartitioner("l_orderkey", ["l_shipdate"]).build(
            table.sample,
            total_rows=table.total_rows,
            num_leaves=max(2, table.total_rows // session.config.rows_per_block),
        )
        table.add_empty_tree(tree)
        assert table.epoch == before + 1

    def test_move_blocks_bumps_only_when_rows_move(self, session):
        table = session.table("lineitem")
        tree = TwoPhasePartitioner("l_orderkey", ["l_shipdate"]).build(
            table.sample,
            total_rows=table.total_rows,
            num_leaves=max(2, table.total_rows // session.config.rows_per_block),
        )
        target = table.add_empty_tree(tree)
        before = table.epoch
        table.move_blocks(table.block_ids(), target)
        assert table.epoch == before + 1
        # Every row now lives under the target tree: a second move is a no-op
        # and must not bump (no plan could be invalidated by it).
        after_move = table.epoch
        table.move_blocks(table.block_ids(), target)
        assert table.epoch == after_move

    def test_resplit_bumps_unconditionally(self, session):
        table = session.table("lineitem")
        node, _ = table.trees[0].bottom_internal_nodes()[0]
        before = table.epoch
        # Re-splitting on the split the node already has moves nothing; the
        # epoch must advance and name the tree and both blocks all the same.
        table.resplit(0, node, node.attribute, node.cutpoint)
        assert table.epoch == before + 1
        delta = table.delta_between(before, table.epoch)
        assert delta.trees_resplit == {0}
        assert delta.blocks_changed == {node.left.block_id, node.right.block_id}

    def test_replace_with_tree_bumps(self, session):
        table = session.table("part")
        tree = TwoPhasePartitioner("p_partkey", ["p_size"]).build(
            table.sample,
            total_rows=table.total_rows,
            num_leaves=max(2, table.total_rows // session.config.rows_per_block),
        )
        before = table.epoch
        table.replace_with_tree(tree)
        assert table.epoch > before

    def test_adaptive_query_bumps_joined_tables(self, session):
        before = {name: session.table(name).epoch for name in ("lineitem", "orders")}
        result = session.run(q12_like(), adapt=True)
        assert result.blocks_repartitioned > 0 or result.trees_created > 0
        after = {name: session.table(name).epoch for name in ("lineitem", "orders")}
        assert after != before


class TestPlanCache:
    def test_repeated_query_hits_cache(self, session):
        first = session.run(q12_like(), adapt=False)
        second = session.run(q12_like(), adapt=False)
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert session.plan_cache.hit_rate > 0

    def test_cached_and_cold_results_are_bit_identical(self, session):
        cold = session.run(q12_like(), adapt=False)
        cached = session.run(q12_like(), adapt=False)
        assert cached.plan_cache_hit
        assert cached.fingerprint() == cold.fingerprint()

    def test_cached_and_cold_explain_text_identical(self, session):
        cold_logical = session.plan(q12_like(), adapt=False)
        cold_physical = session.lower(cold_logical)
        cached_logical = session.plan(q12_like(), adapt=False)
        cached_physical = session.lower(cached_logical)
        assert cached_logical.from_cache and cached_physical.from_cache
        assert cached_logical.explain() == cold_logical.explain()
        assert cached_physical.explain() == cold_physical.explain()

    def test_mutation_invalidates_affected_tables_entries(self, session):
        session.run(q12_like(), adapt=False)
        assert session.run(q12_like(), adapt=False).plan_cache_hit
        # A real mutation through the adaptation path (tree creation + block
        # migration) bumps lineitem/orders epochs ...
        session.run(tpch_query("q12", session.rng), adapt=True)
        # ... so the cached plan for the old partition state must not serve.
        post_mutation = session.run(q12_like(), adapt=False)
        assert not post_mutation.plan_cache_hit

    def test_mutating_unrelated_table_keeps_entries_valid(self, session):
        session.run(q12_like(), adapt=False)
        # Partition-state change on part only.
        with session.table("part").mutation(full=True):
            pass
        assert session.run(q12_like(), adapt=False).plan_cache_hit

    def test_post_mutation_results_reflect_new_state(self, session, tpch_tables):
        """A post-mutation query is never served a stale plan."""
        from repro.testing import reference_join_count

        expected = reference_join_count(
            tpch_tables["lineitem"], tpch_tables["orders"], "l_orderkey", "o_orderkey"
        )
        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        assert session.run(query, adapt=False).output_rows == expected
        # Adapt repeatedly (smooth migration rewrites blocks between trees).
        for _ in range(6):
            session.run(tpch_query("q12", session.rng), adapt=True)
        again = session.run(join_query("lineitem", "orders", "l_orderkey", "o_orderkey"),
                            adapt=False)
        assert again.output_rows == expected

    def test_steady_state_adaptive_workload_hits_cache(self, session):
        query = q12_like()
        results = [session.run(query, adapt=True) for _ in range(16)]
        tail = results[-3:]
        assert any(result.plan_cache_hit for result in tail)
        fingerprints = {result.fingerprint() for result in tail}
        assert len(fingerprints) == 1

    def test_cache_disabled_by_config(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3,
                               plan_cache_size=0)
        session = Session(config=config)
        for name in ("lineitem", "orders"):
            session.load_table(tpch_tables[name])
        first = session.run(q12_like(), adapt=False)
        second = session.run(q12_like(), adapt=False)
        assert not first.plan_cache_hit and not second.plan_cache_hit
        assert len(session.plan_cache) == 0

    def test_hyper_plan_cache_reused_across_different_predicates(self, session):
        """Same pruned block sets under different values reuse the hyper plan."""
        session.run(q12_like(0.0, 1e18), adapt=False)   # prunes nothing
        hits_before = session.optimizer.hyper_cache.hits
        session.run(q12_like(-1.0, 1e18), adapt=False)  # different signature,
        assert session.optimizer.hyper_cache.hits > hits_before  # same blocks

    def test_plan_cache_lru_bound(self):
        cache = PlanCache(capacity=2)
        entry = CachedPlan(scan_tables=[], scan_blocks={}, join_decisions=[])
        cache.put(("a",), entry)
        cache.put(("b",), entry)
        assert cache.get(("a",)) is entry  # refresh "a"
        cache.put(("c",), entry)           # evicts "b", the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is entry
        assert cache.get(("c",)) is entry
        assert len(cache) == 2


class TestBackends:
    def test_backend_selected_via_config(self, tpch_tables):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3,
                               execution_backend="parallel")
        session = Session(config=config)
        assert isinstance(session.backend, ParallelBackend)

    def test_unknown_backend_rejected(self, session):
        with pytest.raises(PlanningError):
            session.use_backend("quantum")
        with pytest.raises(PlanningError):
            AdaptDBConfig(execution_backend="quantum")
        # A runtime model is a read of every result, not a backend.
        for model in ("serial", "simulated"):
            with pytest.raises(PlanningError):
                AdaptDBConfig(execution_backend=model)
            with pytest.raises(PlanningError):
                session.use_backend(model)

    def test_custom_backend_instance_accepted(self, session):
        backend = TaskBackend(session.executor, name="tasks2")
        assert session.use_backend(backend) is backend
        assert session.backends["tasks2"] is backend

    def test_mutating_a_served_plan_does_not_poison_the_cache(self, session):
        reference = session.run(q12_like(), adapt=False).fingerprint()
        tampered = session.plan(q12_like(), adapt=False)
        tampered.join_decisions.clear()
        tampered.scan_tables.append("part")
        tampered.scan_blocks["part"] = []
        assert session.run(q12_like(), adapt=False).fingerprint() == reference

    def test_one_interpreter_behind_every_builtin_backend(self, session):
        assert {"tasks", "parallel"} == set(session.backends)
        assert all(
            backend.executor is session.executor
            for backend in session.backends.values()
        )


INTERPRETER_CASES = {
    "forced-shuffle": ("shuffle", ("lineitem", "orders"), lambda rng: q12_like()),
    "forced-hyper": ("hyper", ("lineitem", "orders"), lambda rng: q12_like()),
    "q3": (None, ("lineitem", "orders", "customer"), lambda rng: tpch_query("q3", rng)),
}


@pytest.mark.parametrize("storage", ["memory", "mmap"])
@pytest.mark.parametrize("backend", ["tasks", "parallel"])
@pytest.mark.parametrize("case", sorted(INTERPRETER_CASES))
def test_interpreter_accounting_equals_the_plan(case, backend, storage, tpch_tables, tmp_path):
    """Each ``JoinStats`` the interpreter produces is its decision's own
    arithmetic — eq. (2) over the hyper-join plan, eq. (1) over the non-empty
    relevant blocks — on both backends and both storage tiers, and every
    cardinality equals the reference join on the raw tables."""
    force, table_names, make_query = INTERPRETER_CASES[case]
    tier = (
        {"persistence": "mmap", "storage_root": str(tmp_path / "root"), "buffer_bytes": 96 * 1024}
        if storage == "mmap"
        else {"persistence": "memory"}
    )
    config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3,
                           force_join_method=force, execution_backend=backend,
                           num_workers=2, **tier)
    with Session(config=config) as session:
        for name in table_names:
            session.load_table(tpch_tables[name])
        query = make_query(session.rng)
        logical = session.plan(query, adapt=False)
        result = session.execute(session.lower(logical))

        def non_empty(block_ids: list[int]) -> int:
            return sum(1 for block_id in block_ids if session.dfs.peek_block(block_id).num_rows)

        assert len(result.join_stats) == len(logical.join_decisions) == len(table_names) - 1
        if force is not None:
            assert result.join_methods == [force] * len(logical.join_decisions)
        cost_model = session.cluster.cost_model
        for decision, stats in zip(logical.join_decisions, result.join_stats):
            assert stats.method == decision.method.value
            if decision.method is JoinMethod.HYPER:
                plan = decision.hyper_plan
                assert stats.build_blocks_read == len(plan.build_block_ids)
                assert stats.probe_blocks_read == plan.estimated_probe_reads
                assert stats.groups == plan.grouping.num_groups
                assert stats.probe_multiplicity == plan.probe_multiplicity
                assert stats.shuffled_blocks == 0
                assert stats.cost_units == cost_model.hyper_join_cost(
                    len(plan.build_block_ids), plan.estimated_probe_reads
                )
            else:
                assert stats.build_blocks_read == non_empty(decision.build_blocks)
                assert stats.probe_blocks_read == non_empty(decision.probe_blocks)
                assert stats.shuffled_blocks == stats.total_blocks_read
                assert stats.cost_units == cost_model.shuffle_join_cost(
                    stats.build_blocks_read, stats.probe_blocks_read
                )
            build, probe = decision.build_table, decision.probe_table
            assert stats.output_rows == reference_join_count(
                tpch_tables[build],
                tpch_tables[probe],
                decision.clause.column_for(build),
                decision.clause.column_for(probe),
                query.predicates_on(build),
                query.predicates_on(probe),
            )
    # The paper's serial model is the sum of exactly these per-join costs.
    assert result.cost_units == pytest.approx(
        sum(stats.cost_units for stats in result.join_stats)
    )
    assert result.runtime_seconds == cost_model.to_seconds(result.cost_units)
    assert result.output_rows == result.join_stats[-1].output_rows


class TestReadStatScoping:
    def test_plan_does_not_reset_read_stats(self, session):
        session.run(q12_like(), adapt=False)
        reads_after_run = session.dfs.read_stats.total_reads
        assert reads_after_run > 0
        session.plan(q12_like(0, 50), adapt=False)
        session.lower(session.plan(q12_like(0, 60), adapt=False))
        assert session.dfs.read_stats.total_reads == reads_after_run

    def test_execute_scopes_stats_to_one_query(self, session):
        first = session.run(scan_query("part", [ge("p_size", 0)]), adapt=False)
        total_after_first = session.dfs.read_stats.total_reads
        session.run(scan_query("part", [ge("p_size", 0)]), adapt=False)
        # Identical query, identical placement: per-execution totals match.
        assert session.dfs.read_stats.total_reads == total_after_first
        assert first.blocks_read == total_after_first


class TestPlanningMetadata:
    def test_planning_seconds_recorded(self, session):
        result = session.run(q12_like(), adapt=False)
        assert result.planning_seconds > 0.0

    def test_logical_plan_records_epochs_and_signature(self, session):
        logical = session.plan(q12_like(), adapt=False)
        assert logical.signature == query_signature(q12_like())
        assert dict(logical.table_epochs) == {
            "lineitem": session.table("lineitem").epoch,
            "orders": session.table("orders").epoch,
        }

    def test_runtime_model_helper(self, session):
        result = session.run(q12_like(), adapt=False)
        assert runtime_seconds(result) == result.runtime_seconds
        assert runtime_seconds(result, "makespan") == result.makespan_cost_units
        assert runtime_seconds(result, "simulated") == simulate(result.schedule).finished_at
        with pytest.raises(ValueError):
            runtime_seconds(result, "wishful")
