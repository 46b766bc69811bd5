"""End-to-end integration tests: full workloads through one ``Session``.

These tests exercise the complete stack (generator → upfront partitioning →
adaptive repartitioning → optimizer → executor) and check the two global
invariants that must hold no matter how the layout evolves:

1. query answers never change (they always match a reference computation on
   the raw data), and
2. no rows are ever lost or duplicated by block migrations.

``TestGoldenDigests`` additionally pins two literal digests that tie today's
decisions to earlier commits (the cross-commit oracles of the retired
``benchmarks/perf`` harness).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api import Session
from repro.baselines import AdaptDBRunner, FullScanBaseline
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.workloads.cmt import CMTGenerator
from repro.workloads.generators import switching_workload
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.tpch_queries import (
    EVALUATED_TEMPLATES,
    tables_for_templates,
    tpch_query,
)

from repro.testing import fig08_scan_queries, reference_join_count


@pytest.fixture(scope="module")
def tpch_small():
    return TPCHGenerator(scale=0.08, seed=3).generate(["lineitem", "orders", "part", "customer"])


class TestTPCHWorkloadEndToEnd:
    def test_switching_workload_answers_match_reference(self, tpch_small):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2)
        db = Session(config)
        for table in tpch_small.values():
            db.load_table(table)
        rng = make_rng(17)
        queries = switching_workload(["q12", "q14"], queries_per_template=6, rng=rng)
        for query in queries:
            result = db.run(query)
            clause = query.joins[0]
            expected = reference_join_count(
                tpch_small[clause.left_table],
                tpch_small[clause.right_table],
                clause.left_column,
                clause.right_column,
                query.predicates_on(clause.left_table),
                query.predicates_on(clause.right_table),
            )
            assert result.output_rows == expected

    def test_rows_never_lost_during_adaptation(self, tpch_small):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2)
        db = Session(config)
        for table in tpch_small.values():
            db.load_table(table)
        expected_rows = {name: table.num_rows for name, table in tpch_small.items()}
        rng = make_rng(23)
        queries = switching_workload(["q12", "q14", "q3"], queries_per_template=5, rng=rng)
        for query in queries:
            db.run(query)
            for name, expected in expected_rows.items():
                assert db.table(name).total_rows == expected

    def test_key_multisets_preserved_after_full_workload(self, tpch_small):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2)
        db = Session(config)
        db.load_table(tpch_small["lineitem"])
        db.load_table(tpch_small["orders"])
        original = np.sort(tpch_small["lineitem"].columns["l_orderkey"])
        rng = make_rng(29)
        for _ in range(12):
            db.run(tpch_query("q12", rng))
        stored = db.table("lineitem")
        keys = np.sort(
            np.concatenate(
                [stored.dfs.peek_block(b).column("l_orderkey") for b in stored.non_empty_block_ids()]
            )
        )
        assert np.array_equal(keys, original)

    def test_adaptdb_total_cost_beats_full_scan_on_a_real_workload(self, tpch_small):
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2)
        tables = [tpch_small[name] for name in ("lineitem", "orders", "part")]
        rng = make_rng(31)
        queries = switching_workload(["q12", "q14"], queries_per_template=8, rng=rng)
        adaptive = AdaptDBRunner(tables, config).run_workload(queries)
        full_scan = FullScanBaseline(tables, config).run_workload(queries)
        assert sum(r.cost_units for r in adaptive) < sum(r.cost_units for r in full_scan)


class TestCMTWorkloadEndToEnd:
    def test_trace_answers_match_reference(self):
        generator = CMTGenerator(scale=0.04, seed=11)
        tables = generator.generate()
        config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2)
        db = Session(config)
        for table in tables.values():
            db.load_table(table)
        for query in generator.query_trace(25):
            result = db.run(query)
            if not query.is_join_query:
                continue
            clause = query.joins[0]
            expected = reference_join_count(
                tables[clause.left_table],
                tables[clause.right_table],
                clause.left_column,
                clause.right_column,
                query.predicates_on(clause.left_table),
                query.predicates_on(clause.right_table),
            )
            assert result.output_rows == expected

    def test_adaptation_creates_trip_id_trees(self):
        generator = CMTGenerator(scale=0.04, seed=11)
        tables = generator.generate()
        db = Session(AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=2))
        for table in tables.values():
            db.load_table(table)
        for query in generator.query_trace(25):
            db.run(query)
        assert db.table("trips").tree_for_join_attribute("trip_id") is not None


# --------------------------------------------------------------------- #
# Golden digests: decisions must not drift across commits
# --------------------------------------------------------------------- #
# The streams are module functions so tests/test_determinism.py can rerun
# them under an adversarial clock and under two hash seeds.
def sha256_of(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def explained_run(session, queries, adapt=True):
    """Plan, lower and execute each query in turn.

    Returns the results and, per query, its physical plan's
    ``explain_full()`` (the logical and physical explains).
    """
    results, explains = [], []
    for query in queries:
        physical = session.lower(session.plan(query, adapt=adapt))
        results.append(session.execute(physical))
        explains.append(physical.explain_full())
    return results, explains


def golden_switching_stream(backend, persistence, root):
    """The 16-query fig13-style switching stream on one backend and tier."""
    templates = list(EVALUATED_TEMPLATES)
    tables = list(
        TPCHGenerator(scale=0.02, seed=1)
        .generate(tables_for_templates(templates))
        .values()
    )
    queries = switching_workload(templates, 2, make_rng(1))
    tier = {"persistence": "memory"}
    if persistence == "mmap":
        # A buffer far below the working set: blocks spill, evict and
        # fault throughout the stream.
        tier = {"persistence": "mmap", "storage_root": str(root), "buffer_bytes": 96_000}
    config = AdaptDBConfig(
        rows_per_block=64, buffer_blocks=8, seed=1,
        execution_backend=backend, num_workers=2, **tier,
    )
    runner = AdaptDBRunner(tables, config)
    try:
        return explained_run(runner.session, queries)
    finally:
        runner.session.close()


def switching_decisions_digest(results) -> str:
    """Digest of the per-query decision series of a switching stream."""
    per_query = {
        name: [int(getattr(result, name)) for result in results]
        for name in (
            "output_rows", "scan_output_rows", "blocks_read",
            "blocks_repartitioned", "trees_created",
        )
    }
    return sha256_of(per_query)


def golden_scan_stream(backend, num_workers):
    """Three fig08-style scans of ``lineitem``, without adaptation."""
    tables = TPCHGenerator(scale=0.02, seed=1).generate(["lineitem"])
    config = AdaptDBConfig(
        rows_per_block=128, buffer_blocks=8, seed=1, num_machines=8,
        execution_backend=backend, num_workers=num_workers,
    )
    with Session(config) as session:
        session.load_table(tables["lineitem"])
        return explained_run(session, fig08_scan_queries(3), adapt=False)


def scan_digest(results) -> str:
    return sha256_of([list(result.fingerprint()) for result in results])


class TestGoldenDigests:
    """Literal digests first recorded on earlier engines.

    Both must hold on every backend and storage tier; a change to either
    literal means seeded decisions changed and needs its own justification.
    """

    #: Per-query decision series of the 16-query fig13-style switching
    #: stream, first recorded on the seed engine.
    SEED_ENGINE_DECISIONS = (
        "8485ebcd1b2c0fa51595fdaa858f0a442b15c24ec6f16b733248309edaf180c4"
    )
    #: ``QueryResult.fingerprint()`` of three fig08-style scans.
    SCAN_FINGERPRINTS = (
        "bcb9d2b23eb35e0438fb5d081d82e271013c302f5b5ab81d4037f3eb5d7a2d40"
    )

    @pytest.mark.parametrize("persistence", ["memory", "mmap"])
    @pytest.mark.parametrize("backend", ["tasks", "parallel"])
    def test_switching_stream_decisions(self, backend, persistence, tmp_path):
        results, _ = golden_switching_stream(backend, persistence, tmp_path / "root")
        assert len(results) == 16
        assert switching_decisions_digest(results) == self.SEED_ENGINE_DECISIONS

    @pytest.mark.parametrize(
        "backend, num_workers", [("tasks", None), ("parallel", 1), ("parallel", 2)]
    )
    def test_scan_fingerprints(self, backend, num_workers):
        results, _ = golden_scan_stream(backend, num_workers)
        assert scan_digest(results) == self.SCAN_FINGERPRINTS
