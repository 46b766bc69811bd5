"""Incremental plan-state maintenance (the patching planner).

Covers the change stamps end to end:

* ``StoredTable.changed_since`` audited over random mutation sequences
  against snapshots taken at every epoch, and mutation by mutation for
  adding, dropping and re-splitting,
* ``patch_overlap_matrix`` audited against brute-force recomputation over
  randomized keep/change/drop/append/permute perturbations,
* the digest-keyed grouping memo,
* ``HyperPlanCache`` upgrades — always checked *bit-identical* against a
  session planning cold (the oracle: its tables report every block as
  changed, so nothing is kept and every upgrade falls back to cold
  planning),
* the one "everything changed" path: ``replace_with_tree`` plans cold,
* read-only overlap matrices in every cached hyper plan.

Agreement with the cold oracle over adaptive streams, on both execution
backends, is checked across the whole configuration matrix in
``tests/test_matrix.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.common.predicates import between
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.core.optimizer import Optimizer
from repro.join.grouping import group_blocks, matrix_row_digests
from repro.join.overlap import compute_overlap_matrix, patch_overlap_matrix
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner

PRED = (5.0, 25.0)


def make_session(tables, incremental=True, **overrides):
    """A two-table session; ``incremental=False`` is the cold-planning oracle.

    The oracle shadows ``changed_since`` on its tables so every block reads
    as changed: a hyper-plan upgrade then keeps nothing and plans cold,
    exactly as it does in production after ``replace_with_tree``.
    """
    config = AdaptDBConfig(rows_per_block=512, buffer_blocks=4, seed=3, **overrides)
    session = Session(config=config)
    for name in ("lineitem", "orders"):
        stored = session.load_table(tables[name])
        if not incremental:
            stored.changed_since = lambda block_id, epoch: True
    return session


def li_join(low=PRED[0], high=PRED[1]):
    return join_query(
        "lineitem",
        "orders",
        "l_orderkey",
        "o_orderkey",
        predicates={"lineitem": [between("l_quantity", low, high)]},
    )


def resplit_somewhere(table, fraction=0.5):
    """Amoeba-style re-split of one bottom leaf pair of ``table``."""
    for tree_id in sorted(table.trees):
        tree = table.tree(tree_id)
        for node, _ in tree.bottom_internal_nodes():
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


def two_phase_tree(table, num_leaves):
    return TwoPhasePartitioner("l_orderkey", ["l_quantity"]).build(
        table.sample, total_rows=table.total_rows, num_leaves=num_leaves
    )


def mutate(table, kind, rng):
    """Apply one mutation of ``kind`` to ``table`` (it may turn out a no-op)."""
    if kind == "move_blocks":
        if table.num_trees < 2:
            table.add_empty_tree(two_phase_tree(table, 4))
        source, target = (int(t) for t in rng.choice(sorted(table.trees), 2, replace=False))
        blocks = table.block_ids(source)
        count = int(rng.integers(1, len(blocks) + 1))
        table.move_blocks([int(b) for b in rng.choice(blocks, count, replace=False)], target)
    elif kind == "resplit":  # over two empty leaves, only their bounds change
        tree_id = int(rng.choice(sorted(table.trees)))
        nodes = table.tree(tree_id).bottom_internal_nodes()
        node, _ = nodes[int(rng.integers(len(nodes)))]
        table.resplit(tree_id, node, node.attribute, node.cutpoint * float(rng.uniform(0.5, 1.5)))
    elif kind == "add_empty_tree":
        table.add_empty_tree(two_phase_tree(table, int(rng.integers(2, 6))))
    elif kind == "drop_empty_trees":
        table.drop_empty_trees()
    else:
        table.replace_with_tree(two_phase_tree(table, int(rng.integers(4, 12))))


def partition_state(table):
    """Block id -> (rows, content digest, tree id, leaf bounds), observed directly."""
    leaves = {}

    def walk(node, tree_id, path):
        if node.is_leaf:
            leaves[node.block_id] = (tree_id, path)
            return
        split = (node.attribute, node.cutpoint)
        walk(node.left, tree_id, (*path, (*split, "<=")))
        walk(node.right, tree_id, (*path, (*split, ">")))

    for tree_id, tree in table.trees.items():
        walk(tree.root, tree_id, ())
    state = {}
    for block_id in table.block_ids():
        block = table.dfs.peek_block(block_id)
        digest = hashlib.blake2b(digest_size=16)
        for name, values in sorted(block.columns.items()):
            digest.update(np.ascontiguousarray(values).tobytes())
        state[block_id] = (block.num_rows, digest.digest(), leaves.get(block_id))
    return state


# --------------------------------------------------------------------- #
# Change stamps: a multi-epoch audit
# --------------------------------------------------------------------- #
MUTATIONS = ("move_blocks", "resplit", "add_empty_tree", "drop_empty_trees", "replace_with_tree")


class TestChangeStamps:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_change_is_stamped_after_every_earlier_epoch(self, tpch_tables, seed):
        """After each mutation of a random run, for every earlier epoch,
        every block that appeared, vanished, or whose rows, contents, tree
        or leaf bounds differ from that epoch's snapshot is
        ``changed_since`` it (so a change that did not bump fails too)."""
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        rng = make_rng(seed)
        snapshots = {table.epoch: partition_state(table)}
        for kind in [*MUTATIONS, *rng.choice(MUTATIONS, 10)]:
            mutate(table, str(kind), rng)
            now = partition_state(table)
            for epoch, then in snapshots.items():
                changed = {b for b in then.keys() | now.keys() if then.get(b) != now.get(b)}
                unstamped = [b for b in sorted(changed) if not table.changed_since(b, epoch)]
                assert unstamped == [], f"{kind}: changes since epoch {epoch} left unstamped"
            assert not any(table.changed_since(b, table.epoch) for b in now)
            snapshots[table.epoch] = now
        assert len(snapshots) > len(MUTATIONS)
        table.audit_cached_statistics()
        session.close()


def changed_blocks(table, epoch, block_ids):
    return {b for b in block_ids if table.changed_since(b, epoch)}


class TestPartitionDelta:
    """What one change to the tree set stamps, block by block."""

    def test_touched_blocks_and_tree_set_preservation(self, tpch_tables):
        """A change to the tree set is described by block ids alone: adding
        a tree stamps every block it creates and nothing else, dropping one
        makes every block it deletes read as changed."""
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        old = set(table.block_ids())
        before = table.epoch
        tree_id = table.add_empty_tree(two_phase_tree(table, 4))
        added = set(table.block_ids(tree_id))
        assert added and not added & old
        assert changed_blocks(table, before, old | added) == added
        before = table.epoch
        assert table.drop_empty_trees() == [tree_id]
        assert changed_blocks(table, before, old | added) == added
        session.close()


class TestDeltaChain:
    """What single mutations stamp, and what an unchanged table reports."""

    def test_empty_span_is_an_empty_delta(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        assert changed_blocks(table, table.epoch, table.block_ids()) == set()
        session.close()

    def test_resplit_records_blocks_and_tree(self, tpch_tables):
        session = make_session(tpch_tables)
        table = session.table("lineitem")
        before = table.epoch
        pair = resplit_somewhere(table)
        assert pair is not None
        assert table.epoch == before + 1
        assert set(pair) <= changed_blocks(table, before, table.block_ids())
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

    def test_replace_with_tree_plans_cold(self, tpch_tables):
        """Once both sides went through ``replace_with_tree`` an upgrade
        would keep no overlap row and no column, so the cache plans cold: no
        upgrade is counted, and the plan equals a fresh optimizer's."""
        session = make_session(tpch_tables, force_join_method="hyper")
        session.plan(li_join(), adapt=False)
        for name, column in (("lineitem", "l_orderkey"), ("orders", "o_orderkey")):
            table = session.table(name)
            table.replace_with_tree(
                UpfrontPartitioner([column], table.rows_per_block).build(
                    table.sample, total_rows=table.total_rows
                )
            )
        upgrades = session.optimizer.hyper_cache.upgrades
        plan = session.plan(li_join(), adapt=False).join_decisions[0].hyper_plan
        assert session.optimizer.hyper_cache.upgrades == upgrades
        fresh = Optimizer(session.catalog, session.cluster, session.config)
        expected = fresh.plan_query(li_join()).join_decisions[0].hyper_plan
        assert plan.build_block_ids == expected.build_block_ids
        assert plan.probe_block_ids == expected.probe_block_ids
        assert np.array_equal(plan.overlap, expected.overlap)
        assert plan.grouping == expected.grouping
        assert plan.probe_multiplicity == expected.probe_multiplicity
        session.close()

    def test_cached_overlap_matrices_refuse_in_place_writes(self, tpch_tables):
        """Both places a hyper-plan entry is built — cold planning and an
        upgrade — hand out a read-only overlap matrix, so patching a
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

