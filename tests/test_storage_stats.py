"""Incremental storage statistics and chunked-block invariants.

Two families of properties introduced by the incremental-metadata work:

* the statistics caches on :class:`StoredTable` (per-block row counts,
  per-tree totals, non-empty sets, table total) must agree exactly with a
  brute-force recomputation over ``dfs.peek_block`` after *any* randomized
  sequence of mutations (``move_blocks``, ``replace_with_tree``,
  ``drop_empty_trees``, Amoeba re-splits), and
* chunked blocks must consolidate without observable change: row order,
  ranges and ``size_bytes`` are identical whether reads happen before,
  between or after appends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.block import Block, compute_ranges
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable


def make_stored(rows: int = 1500, rows_per_block: int = 64, seed: int = 11) -> StoredTable:
    rng = np.random.default_rng(seed)
    schema = Schema.of(("key", DataType.INT), ("other", DataType.INT), ("value", DataType.FLOAT))
    table = ColumnTable(
        "t",
        schema,
        {
            "key": rng.integers(0, 5_000, size=rows),
            "other": rng.integers(0, 200, size=rows),
            "value": rng.uniform(0, 1, size=rows),
        },
    )
    tree = UpfrontPartitioner(["key", "other"], rows_per_block).build(
        table.sample(rng=np.random.default_rng(seed + 1)), total_rows=rows
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(seed + 2))
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


def brute_force_stats(stored: StoredTable) -> dict:
    """Recompute every cached statistic directly from the DFS blocks."""
    per_tree_rows = {
        tree_id: sum(
            stored.dfs.peek_block(b).num_rows for b in stored.block_ids(tree_id)
        )
        for tree_id in stored.trees
    }
    per_tree_non_empty = {
        tree_id: sorted(
            b for b in stored.block_ids(tree_id) if stored.dfs.peek_block(b).num_rows > 0
        )
        for tree_id in stored.trees
    }
    total = sum(per_tree_rows.values())
    fractions = (
        {tree_id: rows / total for tree_id, rows in per_tree_rows.items()}
        if total
        else {tree_id: 0.0 for tree_id in stored.trees}
    )
    return {
        "per_tree_rows": per_tree_rows,
        "per_tree_non_empty": per_tree_non_empty,
        "total": total,
        "fractions": fractions,
    }


def assert_stats_match(stored: StoredTable) -> None:
    expected = brute_force_stats(stored)
    stored.audit_cached_statistics()
    assert stored.total_rows == expected["total"]
    for tree_id in stored.trees:
        assert stored.rows_under_tree(tree_id) == expected["per_tree_rows"][tree_id]
        assert stored.non_empty_block_ids(tree_id) == expected["per_tree_non_empty"][tree_id]
    assert stored.non_empty_block_ids() == sorted(
        b for blocks in expected["per_tree_non_empty"].values() for b in blocks
    )
    assert stored.tree_row_fractions() == expected["fractions"]
    # Block ranges must equal an exact recomputation from the stored rows.
    for block_id in stored.block_ids():
        block = stored.dfs.peek_block(block_id)
        assert block.ranges == compute_ranges(block.columns), f"block {block_id}"


class TestCachedStatisticsProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_mutation_sequences(self, seed):
        """Cached stats equal brute force after random storage mutations."""
        stored = make_stored(seed=20 + seed)
        rng = np.random.default_rng(100 + seed)
        spare_attributes = ["key", "other", "value"]

        for step in range(12):
            action = rng.integers(0, 4)
            if action == 0:
                # Create a new tree for a random attribute and migrate a
                # random subset of blocks into it.
                attribute = spare_attributes[int(rng.integers(0, 3))]
                tree = TwoPhasePartitioner(
                    attribute,
                    [a for a in spare_attributes if a != attribute],
                    rows_per_block=stored.rows_per_block,
                ).build(
                    stored.sample,
                    total_rows=max(stored.total_rows, 1),
                    num_leaves=max(2, stored.total_rows // stored.rows_per_block),
                )
                target = (
                    stored.tree_for_join_attribute(attribute)
                    or stored.add_empty_tree(tree)
                )
                candidates = stored.non_empty_block_ids()
                if candidates:
                    size = int(rng.integers(1, len(candidates) + 1))
                    picked = list(rng.choice(candidates, size=size, replace=False))
                    stored.move_blocks([int(b) for b in picked], target)
            elif action == 1:
                stored.drop_empty_trees()
            elif action == 2:
                replacement = UpfrontPartitioner(
                    ["other", "key"], stored.rows_per_block
                ).build(stored.sample, total_rows=max(stored.total_rows, 1))
                stored.replace_with_tree(replacement)
            else:
                # Amoeba-style re-split of a random bottom node.
                tree_id = list(stored.trees)[int(rng.integers(0, len(stored.trees)))]
                tree = stored.tree(tree_id)
                bottom = tree.bottom_internal_nodes()
                if bottom:
                    node, _ = bottom[int(rng.integers(0, len(bottom)))]
                    attribute = spare_attributes[int(rng.integers(0, 3))]
                    cutpoint = float(np.median(stored.sample[attribute]))
                    stored.resplit(tree_id, node, attribute, cutpoint)
            assert_stats_match(stored)

    def test_move_blocks_conserves_rows(self):
        stored = make_stored()
        before = stored.total_rows
        tree = TwoPhasePartitioner("other", ["key"], rows_per_block=64).build(
            stored.sample, total_rows=before, num_leaves=8
        )
        target = stored.add_empty_tree(tree)
        stats = stored.move_blocks(stored.block_ids(), target)
        assert stored.total_rows == before
        assert stats.rows_moved == before
        assert stored.rows_under_tree(target) == before
        assert_stats_match(stored)

    def test_lookup_excludes_empty_blocks_from_cache(self):
        stored = make_stored()
        tree = TwoPhasePartitioner("other", ["key"], rows_per_block=64).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=8
        )
        target = stored.add_empty_tree(tree)
        source_tree = next(t for t in stored.trees if t != target)
        stored.move_blocks(stored.block_ids(source_tree), target)
        # The drained source tree's blocks are all empty: lookup must skip them.
        assert stored.lookup(tree_id=source_tree) == []
        assert set(stored.lookup()) == set(stored.non_empty_block_ids())


class TestChunkedBlockConsolidation:
    def make_block(self) -> Block:
        return Block(
            block_id=0,
            table="t",
            columns={
                "a": np.array([3, 1, 4], dtype=np.int64),
                "b": np.array([0.3, 0.1, 0.4]),
            },
        )

    def test_append_preserves_row_order_across_consolidation(self):
        block = self.make_block()
        block.append_rows({"a": np.array([1, 5], dtype=np.int64), "b": np.array([0.1, 0.5])})
        block.append_rows({"a": np.array([9], dtype=np.int64), "b": np.array([0.9])})
        assert block.num_pending_chunks == 2
        assert block.num_rows == 6  # O(1), before any consolidation
        assert block.columns["a"].tolist() == [3, 1, 4, 1, 5, 9]
        assert block.columns["b"].tolist() == [0.3, 0.1, 0.4, 0.1, 0.5, 0.9]
        assert block.num_pending_chunks == 0

    def test_incremental_ranges_equal_recomputation(self):
        block = self.make_block()
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(1, 6))
            block.append_rows(
                {
                    "a": rng.integers(-100, 100, size=n),
                    "b": rng.uniform(-1, 2, size=n),
                }
            )
        expected = compute_ranges(block.columns)
        assert block.ranges == expected

    def test_size_bytes_incremental_then_exact(self):
        block = self.make_block()
        initial = block.size_bytes
        chunk = {"a": np.array([7, 8], dtype=np.int64), "b": np.array([0.7, 0.8])}
        block.append_rows(chunk)
        assert block.size_bytes == initial + 2 * 8 * 2
        _ = block.columns  # consolidate
        assert block.size_bytes == sum(a.nbytes for a in block.columns.values())

    def test_append_to_empty_block(self):
        block = Block(0, "t", {"a": np.empty(0, dtype=np.int64)})
        block.append_rows({"a": np.array([2, 1], dtype=np.int64)})
        assert block.num_rows == 2
        assert block.ranges == {"a": (1.0, 2.0)}
        assert block.columns["a"].tolist() == [2, 1]

    def test_clear_resets_all_metadata(self):
        block = self.make_block()
        block.append_rows({"a": np.array([9], dtype=np.int64), "b": np.array([0.9])})
        block.clear({"a": np.empty(0, dtype=np.int64), "b": np.empty(0)})
        assert block.num_rows == 0
        assert block.ranges == {}
        assert block.size_bytes == 0
        assert block.num_pending_chunks == 0

    def test_column_parts_stream_in_row_order(self):
        block = self.make_block()
        block.append_rows({"a": np.array([5], dtype=np.int64), "b": np.array([0.5])})
        parts = block.column_parts()
        assert [part["a"].tolist() for part in parts] == [[3, 1, 4], [5]]
        streamed = np.concatenate([part["a"] for part in parts])
        assert streamed.tolist() == block.columns["a"].tolist()

    def test_mismatched_append_columns_rejected(self):
        from repro.common.errors import StorageError

        block = self.make_block()
        with pytest.raises(StorageError):
            block.append_rows({"a": np.array([1], dtype=np.int64)})
