"""Tests for repro.adaptive.amoeba (selection-driven refinement)."""

from __future__ import annotations

import math

import numpy as np

from repro.adaptive.amoeba import AmoebaAdaptor
from repro.adaptive.window import QueryWindow
from repro.cluster import Cluster
from repro.common.predicates import le
from repro.common.query import scan_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.experiments import fig13_adaptation
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable


def make_table(rows: int = 4096, rows_per_block: int = 512) -> StoredTable:
    """A table whose upfront tree splits only on `unqueried`, so adapting towards
    the frequently queried `hot` attribute is clearly beneficial."""
    rng = np.random.default_rng(21)
    schema = Schema.of(
        ("hot", DataType.INT), ("unqueried", DataType.INT), ("noise", DataType.FLOAT)
    )
    table = ColumnTable(
        "facts",
        schema,
        {
            "hot": rng.integers(0, 10_000, size=rows),
            "unqueried": rng.integers(0, 10_000, size=rows),
            "noise": rng.uniform(0, 1, size=rows),
        },
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(2))
    tree = UpfrontPartitioner(["unqueried"], rows_per_block).build(
        table.sample(), total_rows=rows
    )
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


def hot_window(size: int = 10, count: int = 8) -> QueryWindow:
    window = QueryWindow(size=size)
    for _ in range(count):
        window.add(scan_query("facts", [le("hot", 500)], template="hot-scan"))
    return window


class TestCandidateGeneration:
    def test_candidates_target_hot_attribute(self):
        adaptor = AmoebaAdaptor()
        candidates = adaptor.candidate_transforms(make_table(), hot_window())
        assert candidates
        assert all(candidate.new_attribute == "hot" for candidate in candidates)
        assert all(candidate.benefit > 0 for candidate in candidates)

    def test_no_candidates_without_predicates(self):
        adaptor = AmoebaAdaptor()
        window = QueryWindow(size=10)
        window.add(scan_query("facts"))
        assert adaptor.candidate_transforms(make_table(), window) == []

    def test_no_candidates_for_other_tables(self):
        adaptor = AmoebaAdaptor()
        window = QueryWindow(size=10)
        window.add(scan_query("facts", [le("not_a_column", 3)]))
        assert adaptor.candidate_transforms(make_table(), window) == []

    def test_candidates_sorted_by_benefit(self):
        adaptor = AmoebaAdaptor()
        candidates = adaptor.candidate_transforms(make_table(), hot_window())
        benefits = [candidate.benefit for candidate in candidates]
        assert benefits == sorted(benefits, reverse=True)


class TestAdapt:
    def test_adapt_applies_bounded_number_of_transforms(self):
        adaptor = AmoebaAdaptor(max_transforms_per_query=1)
        stats = adaptor.adapt(make_table(), hot_window())
        assert stats.transforms_applied == 1
        assert stats.blocks_repartitioned == 2

    def test_adapt_preserves_rows(self):
        table = make_table()
        before = table.total_rows
        AmoebaAdaptor().adapt(table, hot_window())
        assert table.total_rows == before

    def test_adapt_improves_pruning_over_repeated_queries(self):
        """After several adaptation rounds the hot predicate should prune blocks."""
        table = make_table()
        window = hot_window()
        predicate = le("hot", 500)
        before = len(table.lookup([predicate]))
        adaptor = AmoebaAdaptor(max_transforms_per_query=2)
        for _ in range(4):
            adaptor.adapt(table, window)
        after = len(table.lookup([predicate]))
        assert after < before

    def test_adapted_blocks_respect_new_split(self):
        table = make_table()
        adaptor = AmoebaAdaptor()
        stats = adaptor.adapt(table, hot_window())
        assert stats.rows_moved > 0
        # Every bottom-level node that now splits on `hot` must have its two
        # blocks separated at the cutpoint.
        for tree in table.trees.values():
            for leaf_parent in _bottom_nodes(tree):
                if leaf_parent.attribute != "hot":
                    continue
                left = table.dfs.peek_block(leaf_parent.left.block_id)
                right = table.dfs.peek_block(leaf_parent.right.block_id)
                if left.num_rows and right.num_rows:
                    assert left.column("hot").max() <= leaf_parent.cutpoint
                    assert right.column("hot").min() > leaf_parent.cutpoint

    def test_no_adaptation_when_benefit_below_threshold(self):
        adaptor = AmoebaAdaptor(benefit_threshold=1e9)
        stats = adaptor.adapt(make_table(), hot_window())
        assert stats.transforms_applied == 0

    def test_join_attribute_levels_are_protected(self):
        """Bottom nodes splitting on a tree's join attribute are never re-split."""
        table = make_table()
        from repro.partitioning.two_phase import TwoPhasePartitioner

        tree = TwoPhasePartitioner("unqueried", ["hot"]).build(
            table.sample, total_rows=table.total_rows, num_leaves=4, join_levels=2
        )
        table.replace_with_tree(tree)
        adaptor = AmoebaAdaptor()
        adaptor.adapt(table, hot_window())
        counts = table.trees[next(iter(table.trees))].attribute_counts()
        assert counts.get("unqueried", 0) == 3  # all three internal nodes untouched


def scalar_touched_sums(self, memo, attribute, cuts, entries_by_attr, total_entries):
    """Reference for ``AmoebaAdaptor._touched_sums``: one node and one
    window entry at a time, scalar bounds, no memo."""

    def touched_sum(cut: float) -> int:
        relevant = entries_by_attr.get(attribute, [])
        total = 2 * (total_entries - len(relevant))
        for _, predicates in relevant:
            on = [p for p in predicates if p.column == attribute]
            total += all(p.may_match_range(-math.inf, cut) for p in on)
            total += all(p.may_match_range(cut, math.inf) for p in on)
        return total

    return np.array([touched_sum(float(cut)) for cut in cuts], dtype=np.int64)


class TestVectorisedBenefits:
    def run_fig13a(self, monkeypatch) -> tuple[list, dict]:
        transforms: list = []
        resplit = StoredTable.resplit

        def recording(table, tree_id, node, attribute, cutpoint):
            moved = resplit(table, tree_id, node, attribute, cutpoint)
            transforms.append((table.name, tree_id, attribute, cutpoint, moved))
            return moved

        with monkeypatch.context() as patch:
            patch.setattr(StoredTable, "resplit", recording)
            result = fig13_adaptation.run_switching()
        return transforms, {series.label: series.y for series in result.series}

    def test_fig13a_decisions_equal_the_scalar_reference(self, monkeypatch):
        transforms, series = self.run_fig13a(monkeypatch)
        monkeypatch.setattr(AmoebaAdaptor, "_touched_sums", scalar_touched_sums)
        assert self.run_fig13a(monkeypatch) == (transforms, series)
        assert len(transforms) > 10, "the stream must exercise Amoeba"


def _bottom_nodes(tree):
    result = []

    def descend(node):
        if node.is_leaf:
            return
        if node.left.is_leaf and node.right.is_leaf:
            result.append(node)
            return
        descend(node.left)
        descend(node.right)

    descend(tree.root)
    return result
