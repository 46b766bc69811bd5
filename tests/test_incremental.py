"""Incremental plan-state maintenance (the delta-patching planner).

Covers the change-descriptor plumbing end to end:

* ``PartitionDelta`` algebra and the bounded per-table delta chain,
* ``patch_overlap_matrix`` audited against brute-force recomputation over
  randomized keep/change/drop/append/permute perturbations,
* the digest-keyed grouping memo,
* ``HyperPlanCache`` delta upgrades and the session plan-cache
  revalidation pass — always checked *bit-identical* against a session
  planning cold (the oracle: its tables' ``delta_between`` answers ``None``,
  the fallback production takes on chain overflow),
* the chain-overflow fallback (spans past the retained window replan),
* read-only overlap matrices in every cached hyper plan.

Agreement with the cold oracle over adaptive streams, on both execution
backends, is checked across the whole configuration matrix in
``tests/test_matrix.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.common.epochs import PartitionDelta
from repro.common.predicates import between
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.join.grouping import group_blocks, matrix_row_digests
from repro.join.overlap import compute_overlap_matrix, patch_overlap_matrix

PRED = (5.0, 25.0)


def make_session(tables, incremental=True, **overrides):
    """A two-table session; ``incremental=False`` is the cold-planning oracle.

    The oracle shadows ``delta_between`` on its tables so every span reads
    as unavailable: revalidation and hyper-plan upgrades then fall back to
    planning cold, exactly as they do in production on chain overflow.
    """
    config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3, **overrides)
    session = Session(config=config)
    for name in ("lineitem", "orders"):
        stored = session.load_table(tables[name])
        if not incremental:
            stored.delta_between = lambda start, end: None
    return session


def li_join(low=PRED[0], high=PRED[1]):
    return join_query(
        "lineitem",
        "orders",
        "l_orderkey",
        "o_orderkey",
        predicates={"lineitem": [between("l_quantity", low, high)]},
    )


def resplit_somewhere(table, fraction=0.5, quantity_window=None):
    """Amoeba-style re-split of one bottom leaf pair of ``table``.

    With ``quantity_window=(lo, hi)``, only nodes whose path bounds on
    ``l_quantity`` are disjoint from the window qualify — the re-split then
    provably leaves the window's relevant block set untouched.
    """
    for tree_id in sorted(table.trees):
        tree = table.tree(tree_id)
        for node, bounds in tree.bottom_internal_nodes():
            if quantity_window is not None:
                quantity_bounds = bounds.get("l_quantity")
                if quantity_bounds is None or not (
                    quantity_bounds[1] < quantity_window[0]
                    or quantity_bounds[0] > quantity_window[1]
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
            return left_id, right_id
    return None


# --------------------------------------------------------------------- #
# PartitionDelta algebra
# --------------------------------------------------------------------- #
class TestPartitionDelta:
    def test_merged_unions_all_sets(self):
        merged = PartitionDelta.merged(
            [
                PartitionDelta(blocks_changed={1, 2}, trees_resplit={0}),
                PartitionDelta(blocks_changed={2, 3}, blocks_dropped={9}),
                PartitionDelta(trees_added={4}, trees_dropped={5}),
            ]
        )
        assert merged.blocks_changed == {1, 2, 3}
        assert merged.blocks_dropped == {9}
        assert merged.trees_resplit == {0}
        assert merged.trees_added == {4}
        assert merged.trees_dropped == {5}
        assert not merged.full

    def test_full_dominates_merge(self):
        merged = PartitionDelta.merged(
            [PartitionDelta(blocks_changed={1}), PartitionDelta.full_change()]
        )
        assert merged.full

    def test_touched_blocks_and_tree_set_preservation(self):
        delta = PartitionDelta(blocks_changed={1}, blocks_dropped={2})
        assert delta.touched_blocks == {1, 2}
        assert delta.preserves_tree_set()
        assert not PartitionDelta(trees_added={3}).preserves_tree_set()
        assert not PartitionDelta(trees_dropped={3}).preserves_tree_set()
        assert not PartitionDelta.full_change().preserves_tree_set()


# --------------------------------------------------------------------- #
# The bounded delta chain
# --------------------------------------------------------------------- #
class TestDeltaChain:
    def test_load_records_a_full_descriptor(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        delta = table.delta_between(0, table.epoch)
        assert delta is not None and delta.full
        session.close()

    def test_empty_span_is_an_empty_delta(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        delta = table.delta_between(table.epoch, table.epoch)
        assert delta is not None
        assert not delta.full and not delta.touched_blocks
        session.close()

    def test_out_of_range_spans_return_none(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        assert table.delta_between(table.epoch, table.epoch + 1) is None
        assert table.delta_between(table.epoch, table.epoch - 1) is None
        session.close()

    def test_resplit_records_blocks_and_tree(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        before = table.epoch
        pair = resplit_somewhere(table)
        assert pair is not None
        delta = table.delta_between(before, table.epoch)
        assert delta is not None and not delta.full
        assert set(pair) <= delta.blocks_changed
        assert delta.trees_resplit
        assert delta.preserves_tree_set()
        session.close()

    def test_chain_overflow_returns_none_for_old_spans(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        table.delta_chain_limit = 2
        start = table.epoch
        for _ in range(4):
            with table.mutation() as delta:
                delta.blocks_changed.add(1)
        assert table.delta_between(start, table.epoch) is None
        recent = table.delta_between(table.epoch - 1, table.epoch)
        assert recent is not None and recent.blocks_changed == {1}
        session.close()


# --------------------------------------------------------------------- #
# Overlap-matrix patching: randomized audit vs. brute force
# --------------------------------------------------------------------- #
def random_ranges(rng, count):
    lows = rng.uniform(0.0, 100.0, count)
    spans = rng.uniform(0.0, 30.0, count)
    return [(float(lo), float(lo + span)) for lo, span in zip(lows, spans)]


def perturb(rng, old_ranges):
    """Randomly keep/change/drop old ranges, append new ones, permute order.

    Returns the new range list plus ``(new_index, old_index)`` kept pairs.
    """
    survivors = []  # (old_index or None, range)
    for old_index, old_range in enumerate(old_ranges):
        roll = rng.uniform()
        if roll < 0.2:
            continue  # dropped
        if roll < 0.45:  # changed in place (a move/append rewrote the block)
            survivors.append((None, random_ranges(rng, 1)[0]))
        else:
            survivors.append((old_index, old_range))
    for new_range in random_ranges(rng, int(rng.integers(0, 5))):
        survivors.append((None, new_range))
    order = rng.permutation(len(survivors))
    new_ranges = [survivors[int(position)][1] for position in order]
    kept = [
        (new_index, survivors[int(position)][0])
        for new_index, position in enumerate(order)
        if survivors[int(position)][0] is not None
    ]
    return new_ranges, kept


class TestPatchOverlapMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_patch_equals_cold_recompute(self, seed):
        rng = make_rng(seed)
        old_build = random_ranges(rng, int(rng.integers(1, 20)))
        old_probe = random_ranges(rng, int(rng.integers(1, 20)))
        matrix = compute_overlap_matrix(old_build, old_probe)
        for _ in range(3):  # chain several perturbations
            new_build, kept_build = perturb(rng, old_build)
            new_probe, kept_probe = perturb(rng, old_probe)
            patched = patch_overlap_matrix(
                matrix, new_build, new_probe, kept_build, kept_probe
            )
            cold = compute_overlap_matrix(new_build, new_probe)
            assert np.array_equal(patched, cold)
            old_build, old_probe, matrix = new_build, new_probe, patched

    def test_all_kept_is_the_identity(self):
        build = [(0.0, 10.0), (5.0, 15.0)]
        probe = [(8.0, 12.0), (20.0, 30.0), (0.0, 1.0)]
        matrix = compute_overlap_matrix(build, probe)
        patched = patch_overlap_matrix(
            matrix, build, probe,
            [(i, i) for i in range(len(build))],
            [(j, j) for j in range(len(probe))],
        )
        assert np.array_equal(patched, matrix)

    def test_everything_dropped_yields_empty_matrix(self):
        build = [(0.0, 10.0)]
        probe = [(5.0, 6.0)]
        matrix = compute_overlap_matrix(build, probe)
        patched = patch_overlap_matrix(matrix, [], [], [], [])
        assert patched.shape == (0, 0)


# --------------------------------------------------------------------- #
# Digest-keyed grouping memo
# --------------------------------------------------------------------- #
class TestGroupingMemo:
    def test_precomputed_digests_hit_the_cold_entry(self):
        rng = make_rng(11)
        overlap = compute_overlap_matrix(random_ranges(rng, 9), random_ranges(rng, 7))
        cold = group_blocks(overlap, budget=3)
        digests = matrix_row_digests(overlap)
        via_digests = group_blocks(overlap, budget=3, row_digests=digests)
        assert via_digests is cold  # same memo entry, not merely equal


# --------------------------------------------------------------------- #
# Per-block lookup membership (the O(depth) revalidation probe)
# --------------------------------------------------------------------- #
class TestLookupContains:
    def test_matches_full_lookup_across_perturbations(self, tpch_tables):
        """``lookup_contains`` must agree with full ``lookup`` membership.

        Audited over shifting predicate windows and interleaved re-splits
        (which change leaf path bounds) — the probe walks the parent chain
        instead of the whole tree, so any disagreement means the final-
        interval shortcut is unsound.
        """
        session = make_session(tpch_tables)
        table = session.catalog.get("lineitem")
        rng = make_rng(19)
        for round_index in range(6):
            low = 1.0 + 7.0 * (round_index % 5)
            predicates = [between("l_quantity", low, low + 11.0)]
            matched = set(table.lookup(predicates))
            for block_id in table.block_ids():
                assert table.lookup_contains(block_id, predicates) == (
                    block_id in matched
                ), f"block {block_id} disagreed for window ({low}, {low + 11.0})"
            assert not table.lookup_contains(10_000_000, predicates)  # unknown id
            resplit_somewhere(table, fraction=float(rng.uniform(0.2, 0.8)))

    def test_no_predicates_means_every_non_empty_block(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.catalog.get("orders")
        non_empty = set(table.non_empty_block_ids())
        for block_id in table.block_ids():
            assert table.lookup_contains(block_id, None) == (block_id in non_empty)


# --------------------------------------------------------------------- #
# System level: patched plans are bit-identical to cold planning
# --------------------------------------------------------------------- #
class TestIncrementalBitIdentity:
    def test_hyper_upgrades_fire_and_match_cold_planning(self, tpch_tables):
        """Re-splits *inside* the relevant set force replans; the incremental
        session patches the hyper schedules instead of recomputing them."""
        fingerprints = {}
        stats = {}
        for incremental in (True, False):
            session = make_session(tpch_tables, incremental=incremental)
            sequence = [session.run(li_join(), adapt=False).fingerprint()]
            for step in range(3):
                assert resplit_somewhere(
                    session.table("lineitem"), fraction=0.4 + 0.1 * step
                )
                sequence.append(session.run(li_join(), adapt=False).fingerprint())
            fingerprints[incremental] = sequence
            stats[incremental] = session.cache_stats()
            session.close()
        assert fingerprints[True] == fingerprints[False]
        assert stats[True]["hyper_upgrades"] > 0
        assert stats[False]["hyper_upgrades"] == 0

    def test_plan_revalidation_fires_for_disjoint_resplits(self, tpch_tables):
        """Re-splits disjoint from the predicate window leave the relevant
        set untouched: the whole cached plan is revalidated, not replanned."""
        window = (5.0, 20.0)
        fingerprints = {}
        stats = {}
        for incremental in (True, False):
            session = make_session(tpch_tables, incremental=incremental)
            query = li_join(*window)
            sequence = [session.run(query, adapt=False).fingerprint()]
            for step in range(3):
                assert resplit_somewhere(
                    session.table("lineitem"),
                    fraction=0.4 + 0.1 * step,
                    quantity_window=window,
                )
                sequence.append(session.run(query, adapt=False).fingerprint())
            fingerprints[incremental] = sequence
            stats[incremental] = session.cache_stats()
            session.close()
        assert fingerprints[True] == fingerprints[False]
        assert stats[True]["plan_revalidations"] > 0
        assert stats[False]["plan_revalidations"] == 0

    def test_touched_relevant_set_blocks_revalidation(self, tpch_tables):
        """A re-split inside the relevant set must NOT be revalidated —
        the conservative bail replans (and may still delta-patch)."""
        session = make_session(tpch_tables)
        session.run(li_join(), adapt=False)
        assert resplit_somewhere(session.table("lineitem"))
        session.run(li_join(), adapt=False)
        assert session.cache_stats()["plan_revalidations"] == 0
        session.close()

    def test_chain_overflow_falls_back_to_cold_planning(self, tpch_tables):
        """Spans past the retained delta window must replan, never guess."""
        fingerprints = {}
        for incremental in (True, False):
            session = make_session(
                tpch_tables, incremental=incremental, delta_chain_limit=1
            )
            sequence = [session.run(li_join(), adapt=False).fingerprint()]
            for step in range(2):
                # Two bumps per round: a span of 2 overflows a chain of 1.
                assert resplit_somewhere(
                    session.table("lineitem"), fraction=0.4 + 0.1 * step
                )
                assert resplit_somewhere(
                    session.table("lineitem"), fraction=0.45 + 0.1 * step
                )
                sequence.append(session.run(li_join(), adapt=False).fingerprint())
            fingerprints[incremental] = sequence
            if incremental:
                stats = session.cache_stats()
                assert stats["hyper_upgrades"] == 0
                assert stats["plan_revalidations"] == 0
            session.close()
        assert fingerprints[True] == fingerprints[False]

    def test_cached_overlap_matrices_refuse_in_place_writes(self, tpch_tables):
        """Both places a hyper-plan entry is built — cold planning and a
        delta upgrade — hand out a read-only overlap matrix, so patching a
        cached matrix in place raises at the write."""
        session = make_session(tpch_tables, force_join_method="hyper")
        plans = [session.plan(li_join(), adapt=False).join_decisions[0].hyper_plan]
        assert resplit_somewhere(session.table("lineitem"))
        plans.append(session.plan(li_join(), adapt=False).join_decisions[0].hyper_plan)
        assert session.cache_stats()["hyper_upgrades"] > 0
        assert plans[0] is not plans[1]
        for plan in plans:
            assert plan.overlap.size
            with pytest.raises(ValueError, match="read-only"):
                plan.overlap[0, 0] = not plan.overlap[0, 0]
        session.close()

