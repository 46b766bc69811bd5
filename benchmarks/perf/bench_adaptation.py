"""Adaptation-path benchmark: fig13-style workload plus storage microbenchmarks.

Times the hot paths this repo's incremental-statistics work targets:

* **end-to-end** — an AdaptDB run (smooth repartitioning + Amoeba refinement
  per query) over a fig13-style switching TPC-H workload at a small block
  size, where per-query bookkeeping dominates,
* **lookup** — repeated partitioning-tree lookups through ``StoredTable``,
* **route** — repeated ``PartitioningTree.route_rows`` calls,
* **append** — repeated block-append cycles (``move_blocks`` back and forth
  between two trees), the smooth-repartitioning write path,
* **plan cache** — a repeated-template planning benchmark: the same converged
  workload is run once with the session plan cache enabled and once with it
  disabled, recording cold vs. cached planning time, the cache hit rate, and
  whether every per-query result fingerprint is bit-identical between the
  two runs (it must be — the cache may only change planning time),
* **persist** — the durable storage tier: the fig13-style switching workload
  runs on an ``mmap`` session whose block buffer is budgeted well below the
  working set (so blocks spill, evict and fault throughout), and every
  per-query fingerprint must stay bit-identical to a plain in-memory
  session; the session then checkpoints and reopens via ``Session.open``,
  where a repeated-template pass must reproduce the pre-restart
  fingerprints — cold on the first pass (the plan cache starts empty) and
  from the plan cache on the second (restored epochs key it identically),
* **sim** — a fig13-style concurrent workload on the ``repro.sim``
  discrete-event simulator: four closed-loop clients with think time plus a
  background repartitioning stream, reporting per-query latency percentiles,
  queueing delay and machine utilisation.  The whole simulation runs twice
  from fresh sessions; the smoke gate fails unless both runs produce
  bit-identical latency fingerprints (the simulator must be deterministic).

Besides wall-clock numbers the end-to-end run records a *decision
fingerprint* — per-query ``output_rows``, blocks read, blocks repartitioned
and trees created — so that before/after runs can prove the optimization
changed nothing observable.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_adaptation.py --label post
    PYTHONPATH=src python benchmarks/perf/bench_adaptation.py --smoke --out /tmp/b.json

Results are merged into ``BENCH_adaptation.json`` (repo root by default)
under the given label, so a ``pre`` entry captured on the old engine survives
a later ``post`` run.  When both ``pre`` and ``post`` are present the script
reports the speedup and verifies the fingerprints match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import analyze_paths
from repro.api import Session
from repro.baselines.runners import AdaptDBRunner
from repro.common.predicates import between
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.core.config import AdaptDBConfig
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.sim import run_concurrent_workload
from repro.workloads.generators import switching_workload
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.tpch_queries import EVALUATED_TEMPLATES, tables_for_templates, tpch_query

DEFAULT_OUT = Path(__file__).resolve().parents[2] / "BENCH_adaptation.json"

#: Packages whose behaviour feeds the decision fingerprint.  A timing run
#: over code that violates the repo invariants (epoch discipline, delta
#: completeness, determinism, shared-memory races) would measure a broken
#: engine, so the benchmark refuses to record numbers until the static
#: checkers come back clean on these.
FINGERPRINTED_PACKAGES = (
    "adaptive", "exec", "join", "parallel", "partitioning", "sim", "storage",
)


def assert_analysis_clean() -> None:
    """Exit non-zero if any invariant checker fires on the fingerprinted code."""
    import repro

    root = Path(repro.__file__).resolve().parent
    targets = [root / name for name in FINGERPRINTED_PACKAGES if (root / name).is_dir()]
    violations, file_count = analyze_paths(targets)
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        for violation in errors:
            print(violation.render(), file=sys.stderr)
        print(
            f"ERROR: {len(errors)} invariant violation(s) in the fingerprinted "
            "modules; refusing to record timings for a broken engine",
            file=sys.stderr,
        )
        raise SystemExit(2)
    print(f"invariant checkers clean on {file_count} fingerprinted module file(s)")


# --------------------------------------------------------------------------- #
# End-to-end adaptation workload
# --------------------------------------------------------------------------- #

def run_adaptation_workload(
    scale: float, rows_per_block: int, queries_per_template: int, seed: int = 1
) -> dict:
    """Run the fig13-style switching workload and return timing + fingerprint."""
    templates = list(EVALUATED_TEMPLATES)
    rng = make_rng(seed)
    tables = list(
        TPCHGenerator(scale=scale, seed=seed)
        .generate(tables_for_templates(templates))
        .values()
    )
    queries = switching_workload(templates, queries_per_template, rng)
    config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)

    runner = AdaptDBRunner(tables, config)
    start = time.perf_counter()
    results = runner.run_workload(queries)
    elapsed = time.perf_counter() - start

    per_query = {
        "output_rows": [int(r.output_rows) for r in results],
        "scan_output_rows": [int(r.scan_output_rows) for r in results],
        "blocks_read": [int(r.blocks_read) for r in results],
        "blocks_repartitioned": [int(r.blocks_repartitioned) for r in results],
        "trees_created": [int(r.trees_created) for r in results],
    }
    fingerprint = hashlib.sha256(
        json.dumps(per_query, sort_keys=True).encode()
    ).hexdigest()
    return {
        "seconds": round(elapsed, 4),
        "num_queries": len(queries),
        "scale": scale,
        "rows_per_block": rows_per_block,
        "fingerprint": fingerprint,
        "per_query": per_query,
    }


# --------------------------------------------------------------------------- #
# Plan-cache benchmark (repeated-template planning)
# --------------------------------------------------------------------------- #

def run_plan_cache_benchmark(
    scale: float,
    rows_per_block: int,
    warmup_per_template: int,
    repeats: int,
    seed: int = 1,
) -> dict:
    """Cold vs. cached planning on a fig13-style repeated-template workload.

    The *same* deterministic workload (per-template warmup to convergence,
    then each template's query repeated ``repeats`` times, everything with
    adaptation enabled) runs in two sessions that differ only in whether the
    planning caches are on.  Reported:

    * total planning seconds with the cache disabled (cold) and enabled,
    * the plan-cache hit rate over the measured repeats,
    * whether every measured result fingerprint matches between the runs
      (the cache must never change results or adaptation decisions).
    """
    templates = list(EVALUATED_TEMPLATES)

    def build_and_run(plan_cache_size: int):
        rng = make_rng(seed)
        tables = (
            TPCHGenerator(scale=scale, seed=seed)
            .generate(tables_for_templates(templates))
            .values()
        )
        config = AdaptDBConfig(
            rows_per_block=rows_per_block, buffer_blocks=8, seed=seed,
            plan_cache_size=plan_cache_size,
        )
        session = Session(config=config)
        if plan_cache_size == 0:
            # The cold baseline plans from scratch: no plan cache and no
            # epoch-keyed hyper-plan memo (decisions are unaffected — both
            # are pure memoization).
            session.optimizer.hyper_cache = None
        for table in tables:
            session.load_table(table)
        measured = []
        for template in templates:
            # Converge adaptation on this template, then repeat one query:
            # the steady-state regime where repeated templates replan the
            # same thing every query.
            for _ in range(warmup_per_template):
                session.run(tpch_query(template, rng))
            query = tpch_query(template, rng)
            measured.extend(session.run(query) for _ in range(repeats))
        return session, measured

    cached_session, cached_results = build_and_run(64)
    _, cold_results = build_and_run(0)

    cold_planning = sum(r.planning_seconds for r in cold_results)
    cached_planning = sum(r.planning_seconds for r in cached_results)
    hits = sum(r.plan_cache_hit for r in cached_results)
    identical = [r.fingerprint() for r in cached_results] == [
        r.fingerprint() for r in cold_results
    ]
    return {
        "measured_queries": len(cached_results),
        "repeats_per_template": repeats,
        "cold_planning_seconds": round(cold_planning, 6),
        "cached_planning_seconds": round(cached_planning, 6),
        "planning_speedup": round(cold_planning / max(cached_planning, 1e-9), 2),
        "hit_rate": round(hits / len(cached_results), 4),
        "results_identical": identical,
        "session_cache_stats": cached_session.cache_stats(),
    }


# --------------------------------------------------------------------------- #
# Incremental-planning benchmark (cold vs. delta-patched replans)
# --------------------------------------------------------------------------- #

def run_incremental_planning_benchmark(
    scale: float,
    rows_per_block: int,
    repeats: int,
    seed: int = 1,
) -> dict:
    """Cold vs. delta-patched planning across epoch bumps.

    A fig13-style ``lineitem ⋈ orders`` template repeats while background
    adaptation (Amoeba-style leaf re-splits) bumps ``lineitem``'s epoch
    between consecutive queries, so *every* measured query faces a stale
    plan cache.  The workload runs in two sessions differing only in
    ``AdaptDBConfig.incremental_planning``:

    * **cold** — every epoch bump forces a full replan (peek every block,
      recompute the overlap matrix and grouping from scratch),
    * **patched** — the planner consults the tables' change descriptors and
      patches cached state: whole-plan revalidation when the re-split is
      disjoint from the template's relevant set, hyper-plan delta upgrades
      when it is not.

    Most re-splits land outside the template's predicate window (the
    revalidation regime); every third lands wherever the tree offers,
    inside or out (exercising the upgrade path too).  Reported: summed
    planning seconds per mode, the speedup, the patch counters, and
    whether every per-query result fingerprint is bit-identical between
    the modes (it must be — patching may only change planning time).
    """
    window = (5.0, 20.0)

    def fig13_query():
        return join_query(
            "lineitem",
            "orders",
            "l_orderkey",
            "o_orderkey",
            predicates={"lineitem": [between("l_quantity", *window)]},
        )

    def resplit_background(table, fraction: float, disjoint: bool) -> bool:
        """Deterministic Amoeba-style re-split of one bottom leaf pair.

        With ``disjoint`` the chosen node's path bounds on ``l_quantity``
        must avoid the template's window, so the re-split provably leaves
        the query's relevant block set untouched.
        """
        for tree_id in sorted(table.trees):
            tree = table.tree(tree_id)
            for node, bounds in tree.bottom_internal_nodes():
                if disjoint:
                    quantity = bounds.get("l_quantity")
                    if quantity is None or not (
                        quantity[1] < window[0] or quantity[0] > window[1]
                    ):
                        continue
                left_id, right_id = node.left.block_id, node.right.block_id
                ranges = [
                    block_range
                    for block_range in (
                        table.join_range_of_block(left_id, node.attribute),
                        table.join_range_of_block(right_id, node.attribute),
                    )
                    if block_range is not None
                ]
                if not ranges:
                    continue
                low = min(r[0] for r in ranges)
                high = max(r[1] for r in ranges)
                if not low < high:
                    continue
                cutpoint = low + (high - low) * fraction
                if cutpoint == node.cutpoint:
                    cutpoint = low + (high - low) * 0.5
                table.resplit(tree_id, node, node.attribute, cutpoint)
                return True
        return False

    def run_once(incremental: bool):
        config = AdaptDBConfig(
            rows_per_block=rows_per_block, buffer_blocks=8, seed=seed,
            incremental_planning=incremental,
        )
        session = Session(config=config)
        tables = TPCHGenerator(scale=scale, seed=seed).generate(["lineitem", "orders"])
        for table in tables.values():
            session.load_table(table)
        results = [session.run(fig13_query(), adapt=True)]  # converge adaptation
        table = session.table("lineitem")
        for step in range(repeats):
            resplit_background(
                table, 0.30 + 0.04 * (step % 10), disjoint=step % 3 != 2
            )
            results.append(session.run(fig13_query(), adapt=False))
        stats = session.cache_stats()
        session.close()
        return results, stats

    patched_results, patched_stats = run_once(True)
    cold_results, cold_stats = run_once(False)
    cold_planning = sum(r.planning_seconds for r in cold_results[1:])
    patched_planning = sum(r.planning_seconds for r in patched_results[1:])
    identical = [r.fingerprint() for r in patched_results] == [
        r.fingerprint() for r in cold_results
    ]
    return {
        "measured_queries": len(patched_results) - 1,
        "cold_planning_seconds": round(cold_planning, 6),
        "patched_planning_seconds": round(patched_planning, 6),
        "planning_speedup": round(cold_planning / max(patched_planning, 1e-9), 2),
        "results_identical": identical,
        "hyper_upgrades": patched_stats["hyper_upgrades"],
        "plan_revalidations": patched_stats["plan_revalidations"],
        "cold_hyper_misses": cold_stats["hyper_misses"],
    }


# --------------------------------------------------------------------------- #
# Durable-storage benchmark (bounded-memory run + checkpoint/restart)
# --------------------------------------------------------------------------- #

def run_persist_benchmark(
    scale: float,
    rows_per_block: int,
    queries_per_template: int,
    buffer_bytes: int,
    seed: int = 1,
) -> dict:
    """Bounded-memory mmap run vs. memory run, then checkpoint + reopen.

    Three gated properties:

    * an ``mmap`` session whose buffer budget is far below the working set
      (every query faults and evicts) produces per-query fingerprints
      bit-identical to a plain in-memory session,
    * after ``checkpoint()`` + close + ``Session.open`` a repeated-template
      pass reproduces the pre-restart fingerprints with an empty plan
      cache (cold, identical results),
    * the second post-restart pass hits the plan cache — the restored
      epochs key it exactly as the original session did.
    """
    import shutil
    import tempfile

    templates = list(EVALUATED_TEMPLATES)

    def build_session(config):
        tables = TPCHGenerator(scale=scale, seed=seed).generate(
            tables_for_templates(templates)
        )
        session = Session(config=config)
        for table in tables.values():
            session.load_table(table)
        return session

    queries = switching_workload(templates, queries_per_template, make_rng(seed))
    repeated = queries[: len(templates)]

    memory = build_session(
        AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)
    )
    expected = [r.fingerprint() for r in memory.run_workload(queries)]
    memory.close()

    storage_root = tempfile.mkdtemp(prefix="repro-bench-persist-")
    try:
        mmap_session = build_session(
            AdaptDBConfig(
                rows_per_block=rows_per_block, buffer_blocks=8, seed=seed,
                persistence="mmap", storage_root=storage_root,
                buffer_bytes=buffer_bytes,
            )
        )
        start = time.perf_counter()
        fingerprints = [
            r.fingerprint() for r in mmap_session.run_workload(queries)
        ]
        mmap_wall = time.perf_counter() - start
        buffer = mmap_session.persist.buffer
        counters = {
            "buffer_faults": buffer.faults,
            "buffer_hits": buffer.hits,
            "buffer_evictions": buffer.evictions,
            "blocks_spilled": mmap_session.persist.store.spills,
        }
        pre_restart = [
            mmap_session.run(query, adapt=False).fingerprint()
            for query in repeated
        ]
        checkpoint_stats = mmap_session.checkpoint()
        mmap_session.close()

        reopened = Session.open(storage_root)
        cold = [reopened.run(query, adapt=False) for query in repeated]
        warm = [reopened.run(query, adapt=False) for query in repeated]
        reopened.close()
        return {
            "num_queries": len(queries),
            "scale": scale,
            "rows_per_block": rows_per_block,
            "buffer_bytes": buffer_bytes,
            "mmap_wall_seconds": round(mmap_wall, 4),
            "memory_identical": fingerprints == expected,
            **counters,
            **{f"checkpoint_{k}": v for k, v in checkpoint_stats.items()},
            "restore_identical": [r.fingerprint() for r in cold] == pre_restart
            and [r.fingerprint() for r in warm] == pre_restart,
            "cold_cache_hits": sum(r.plan_cache_hit for r in cold),
            "warm_hit_rate": round(
                sum(r.plan_cache_hit for r in warm) / max(len(warm), 1), 4
            ),
        }
    finally:
        shutil.rmtree(storage_root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Concurrent-workload simulation benchmark
# --------------------------------------------------------------------------- #

def run_sim_workload_benchmark(
    scale: float,
    rows_per_block: int,
    num_clients: int = 4,
    queries_per_client: int = 4,
    think_seconds: float = 20.0,
    background_repartition_blocks: int = 200,
    seed: int = 1,
) -> dict:
    """Fig13-style concurrent run on the discrete-event simulator.

    ``num_clients`` closed-loop clients submit TPC-H template queries with
    seeded exponential think time while a background repartitioning stream
    contends for machines and the bounded repartitioning bandwidth.  The
    simulation runs **twice** from fresh sessions with the same seed; the
    reported ``deterministic`` flag (gated in CI) is whether both runs
    produced bit-identical latency fingerprints.
    """
    templates = ["q12", "q3", "q14", "q12"]

    def run_once():
        config = AdaptDBConfig(rows_per_block=rows_per_block, buffer_blocks=8, seed=seed)
        session = Session(config=config)
        tables = TPCHGenerator(scale=scale, seed=seed).generate(
            ["lineitem", "orders", "customer", "part"]
        )
        for table in tables.values():
            session.load_table(table)
        rng = make_rng(seed + 100)
        clients = [
            [
                tpch_query(templates[i % len(templates)], rng)
                for i in range(queries_per_client)
            ]
            for _ in range(num_clients)
        ]
        start = time.perf_counter()
        report = run_concurrent_workload(
            session,
            clients,
            think_seconds=think_seconds,
            seed=seed,
            background_repartition_blocks=background_repartition_blocks,
        )
        return report, time.perf_counter() - start

    first, first_wall = run_once()
    second, _ = run_once()
    summary = first.summary()
    summary.update(
        num_clients=num_clients,
        queries_per_client=queries_per_client,
        think_seconds=think_seconds,
        background_repartition_blocks=background_repartition_blocks,
        scale=scale,
        rows_per_block=rows_per_block,
        wall_seconds=round(first_wall, 4),
        deterministic=first.fingerprint() == second.fingerprint(),
    )
    return summary


# --------------------------------------------------------------------------- #
# Microbenchmarks
# --------------------------------------------------------------------------- #

def _build_stored_table(num_rows: int, rows_per_block: int):
    from repro.cluster import Cluster
    from repro.common.schema import DataType, Schema
    from repro.storage.dfs import DistributedFileSystem
    from repro.storage.table import ColumnTable, StoredTable
    from repro.partitioning.upfront import UpfrontPartitioner

    rng = np.random.default_rng(7)
    schema = Schema.of(("key", DataType.INT), ("other", DataType.INT), ("value", DataType.FLOAT))
    columns = {
        "key": rng.integers(0, 100_000, size=num_rows),
        "other": rng.integers(0, 1_000, size=num_rows),
        "value": rng.uniform(0, 1, size=num_rows),
    }
    table = ColumnTable("bench", schema, columns)
    tree = UpfrontPartitioner(["key", "other"], rows_per_block).build(
        table.sample(rng=np.random.default_rng(8)), total_rows=num_rows
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(3))
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


def bench_lookup(num_rows: int, rows_per_block: int, iterations: int) -> dict:
    """Repeated StoredTable.lookup calls with a selective range predicate."""
    stored = _build_stored_table(num_rows, rows_per_block)
    predicates = [between("key", 10_000, 30_000)]
    stored.lookup(predicates)  # warm-up
    start = time.perf_counter()
    matched = 0
    for _ in range(iterations):
        matched += len(stored.lookup(predicates))
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "iterations": iterations,
        "per_call_us": round(elapsed / iterations * 1e6, 2),
        "blocks_matched": matched // iterations,
    }


def bench_route(num_rows: int, rows_per_block: int, iterations: int) -> dict:
    """Repeated route_rows calls over a fixed batch of rows."""
    stored = _build_stored_table(num_rows, rows_per_block)
    tree = stored.tree(next(iter(stored.trees)))
    rng = np.random.default_rng(11)
    batch = {
        "key": rng.integers(0, 100_000, size=4096),
        "other": rng.integers(0, 1_000, size=4096),
        "value": rng.uniform(0, 1, size=4096),
    }
    tree.route_rows(batch)  # warm-up
    start = time.perf_counter()
    for _ in range(iterations):
        tree.route_rows(batch)
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "iterations": iterations,
        "per_call_us": round(elapsed / iterations * 1e6, 2),
    }


def bench_append(num_rows: int, rows_per_block: int, cycles: int) -> dict:
    """Move every block back and forth between two trees (append-heavy path)."""
    stored = _build_stored_table(num_rows, rows_per_block)
    source_tree = next(iter(stored.trees))
    tree = TwoPhasePartitioner("key", ["other"], rows_per_block=rows_per_block).build(
        stored.sample,
        total_rows=stored.total_rows,
        num_leaves=max(2, stored.total_rows // rows_per_block),
    )
    target_tree = stored.add_empty_tree(tree)
    start = time.perf_counter()
    rows_moved = 0
    for cycle in range(cycles):
        target = target_tree if cycle % 2 == 0 else source_tree
        stats = stored.move_blocks(stored.block_ids(), target)
        rows_moved += stats.rows_moved
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "cycles": cycles,
        "rows_moved": rows_moved,
        "rows_per_second": round(rows_moved / elapsed) if elapsed else None,
    }


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #

def run_suite(smoke: bool) -> dict:
    if smoke:
        e2e = run_adaptation_workload(scale=0.02, rows_per_block=64, queries_per_template=2)
        plan_cache = run_plan_cache_benchmark(
            scale=0.02, rows_per_block=64, warmup_per_template=6, repeats=3
        )
        incremental = run_incremental_planning_benchmark(
            scale=0.05, rows_per_block=64, repeats=9
        )
        persist = run_persist_benchmark(
            scale=0.02, rows_per_block=64, queries_per_template=2,
            buffer_bytes=96_000,
        )
        sim = run_sim_workload_benchmark(
            scale=0.02, rows_per_block=128, num_clients=4, queries_per_client=2,
            background_repartition_blocks=64,
        )
        micro_rows, micro_rpb, iters, cycles = 20_000, 128, 50, 2
    else:
        # rows_per_block=64 is the small-block regime where per-query
        # bookkeeping dominates — the regime the incremental-statistics work
        # targets (the acceptance bar is rows_per_block <= 512).
        e2e = run_adaptation_workload(scale=0.1, rows_per_block=64, queries_per_template=6)
        plan_cache = run_plan_cache_benchmark(
            scale=0.1, rows_per_block=64, warmup_per_template=12, repeats=5
        )
        incremental = run_incremental_planning_benchmark(
            scale=0.1, rows_per_block=64, repeats=12
        )
        persist = run_persist_benchmark(
            scale=0.1, rows_per_block=64, queries_per_template=4,
            buffer_bytes=256_000,
        )
        sim = run_sim_workload_benchmark(
            scale=0.1, rows_per_block=512, num_clients=4, queries_per_client=4,
            background_repartition_blocks=200,
        )
        micro_rows, micro_rpb, iters, cycles = 100_000, 128, 200, 6
    return {
        "mode": "smoke" if smoke else "full",
        "end_to_end": e2e,
        "plan_cache": plan_cache,
        "incremental_planning": incremental,
        "persist": persist,
        "sim": sim,
        "micro": {
            "lookup": bench_lookup(micro_rows, micro_rpb, iters),
            "route": bench_route(micro_rows, micro_rpb, iters),
            "append": bench_append(micro_rows, micro_rpb, cycles),
        },
    }


def check_plan_cache(post: dict) -> int:
    """Gate the plan-cache benchmark: hits must occur, results must match."""
    plan_cache = post.get("plan_cache")
    if not plan_cache:
        return 0
    print(f"plan cache: planning {plan_cache['cold_planning_seconds']}s cold -> "
          f"{plan_cache['cached_planning_seconds']}s cached "
          f"({plan_cache['planning_speedup']}x), "
          f"hit rate {plan_cache['hit_rate']}, "
          f"results identical: {plan_cache['results_identical']}")
    status = 0
    if plan_cache["hit_rate"] <= 0:
        print("ERROR: plan cache never hit on the repeated-template workload",
              file=sys.stderr)
        status = 1
    if not plan_cache["results_identical"]:
        print("ERROR: cached and cold runs produced different result fingerprints",
              file=sys.stderr)
        status = 1
    return status


def check_incremental(post: dict) -> int:
    """Gate the incremental-planning benchmark.

    Fatal if the patched and cold runs differ in any result fingerprint,
    if the delta machinery never engaged, or if patching did not make
    post-epoch-bump planning at least 2x faster.
    """
    incremental = post.get("incremental_planning")
    if not incremental:
        return 0
    print(f"incremental planning: {incremental['cold_planning_seconds']}s cold -> "
          f"{incremental['patched_planning_seconds']}s patched "
          f"({incremental['planning_speedup']}x), "
          f"{incremental['plan_revalidations']} revalidations, "
          f"{incremental['hyper_upgrades']} hyper upgrades, "
          f"results identical: {incremental['results_identical']}")
    status = 0
    if not incremental["results_identical"]:
        print("ERROR: delta-patched and cold planning produced different "
              "result fingerprints", file=sys.stderr)
        status = 1
    if incremental["plan_revalidations"] + incremental["hyper_upgrades"] <= 0:
        print("ERROR: the delta machinery never engaged (no revalidations or "
              "upgrades)", file=sys.stderr)
        status = 1
    if incremental["planning_speedup"] < 2.0:
        print(f"ERROR: incremental planning speedup "
              f"{incremental['planning_speedup']}x is below the 2x threshold",
              file=sys.stderr)
        status = 1
    return status


def check_persist(post: dict) -> int:
    """Gate the durable-storage benchmark.

    Fatal if the bounded-memory mmap run diverged from the memory run, if
    the budget never actually evicted (the run would not have exercised the
    bounded-memory path), if the reopened session failed to reproduce the
    pre-restart fingerprints, or if the restored epochs failed to key the
    plan cache (no hits on the second post-restart pass).
    """
    persist = post.get("persist")
    if not persist:
        return 0
    print(f"persist: {persist['num_queries']} queries under a "
          f"{persist['buffer_bytes']}-byte buffer, "
          f"{persist['buffer_faults']} faults / "
          f"{persist['buffer_evictions']} evictions / "
          f"{persist['blocks_spilled']} spills, "
          f"memory-identical: {persist['memory_identical']}, "
          f"restore-identical: {persist['restore_identical']}, "
          f"post-restart hit rate {persist['warm_hit_rate']}")
    status = 0
    if not persist["memory_identical"]:
        print("ERROR: bounded-memory mmap run diverged from the in-memory run",
              file=sys.stderr)
        status = 1
    if persist["buffer_evictions"] <= 0 or persist["buffer_faults"] <= 0:
        print("ERROR: the buffer budget never evicted/faulted — the benchmark "
              "did not exercise the bounded-memory tier", file=sys.stderr)
        status = 1
    if not persist["restore_identical"]:
        print("ERROR: the reopened session failed to reproduce the "
              "pre-restart result fingerprints", file=sys.stderr)
        status = 1
    if persist["cold_cache_hits"] != 0:
        print("ERROR: the reopened session's first pass hit a plan cache "
              "that should start empty", file=sys.stderr)
        status = 1
    if persist["warm_hit_rate"] <= 0:
        print("ERROR: restored epochs never keyed the plan cache "
              "(no hits on the second post-restart pass)", file=sys.stderr)
        status = 1
    return status


def check_sim(post: dict) -> int:
    """Gate the sim benchmark: the concurrent run must be deterministic."""
    sim = post.get("sim")
    if not sim:
        return 0
    latency = sim["latency"]
    print(f"sim: {sim['queries']} queries over {sim['num_clients']} clients, "
          f"latency p50 {latency['p50']} / p90 {latency['p90']} / p99 {latency['p99']} sim-s, "
          f"mean queueing {sim['mean_queueing_seconds']} sim-s, "
          f"deterministic: {sim['deterministic']}")
    if not sim["deterministic"]:
        print("ERROR: two identically-seeded sim runs produced different latencies",
              file=sys.stderr)
        return 1
    if sim["queries"] <= 0:
        print("ERROR: sim benchmark completed no queries", file=sys.stderr)
        return 1
    return 0


def compare(data: dict) -> int:
    """Report pre/post speedup and fingerprint equality; non-zero on mismatch."""
    post = data.get("post")
    status = (
        check_plan_cache(post) + check_incremental(post)
        + check_persist(post) + check_sim(post)
    ) if post else 0
    pre = data.get("pre")
    if not (pre and post):
        return status
    if pre["mode"] != post["mode"]:
        print(f"note: pre mode {pre['mode']!r} != post mode {post['mode']!r}; skipping comparison")
        return status
    speedup = pre["end_to_end"]["seconds"] / max(post["end_to_end"]["seconds"], 1e-9)
    same = pre["end_to_end"]["fingerprint"] == post["end_to_end"]["fingerprint"]
    print(f"end-to-end speedup: {speedup:.2f}x "
          f"({pre['end_to_end']['seconds']}s -> {post['end_to_end']['seconds']}s)")
    for name in ("lookup", "route", "append"):
        p, q = pre["micro"][name]["seconds"], post["micro"][name]["seconds"]
        print(f"  micro/{name}: {p / max(q, 1e-9):.2f}x ({p}s -> {q}s)")
    print(f"decision fingerprint identical: {same}")
    if not same:
        print("ERROR: pre/post decision fingerprints differ", file=sys.stderr)
        return 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="post", choices=["pre", "post"],
                        help="which slot of the JSON to write")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output JSON path (merged, not overwritten)")
    args = parser.parse_args()

    assert_analysis_clean()

    data = {}
    if args.out.exists():
        data = json.loads(args.out.read_text())
    suite = run_suite(args.smoke)
    previous = data.get(args.label) or {}
    if "parallel" in previous:
        # bench_parallel.py owns this subsection; re-running this script
        # must not drop its most recent numbers.
        suite["parallel"] = previous["parallel"]
    data[args.label] = suite
    status = compare(data)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out} [{args.label}] "
          f"(end-to-end {data[args.label]['end_to_end']['seconds']}s)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
