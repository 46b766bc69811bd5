"""Incremental storage statistics and chunked-block invariants.

Two families of properties introduced by the incremental-metadata work:

* the statistics caches on :class:`StoredTable` (per-block row counts,
  per-tree totals, non-empty sets, table total) must agree exactly with a
  brute-force recomputation over ``dfs.peek_block`` after *any* randomized
  sequence of mutations (``move_blocks``, ``replace_with_tree``,
  ``drop_empty_trees``, Amoeba re-splits), and
* chunked blocks must consolidate without observable change: row order,
  ranges and ``size_bytes`` are identical whether reads happen before,
  between or after appends, and
* who consolidates: the first join read after an append compacts exactly the
  blocks it reads, once; block migration never compacts its sources.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.api import Session
from repro.cluster import Cluster
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.core import AdaptDBConfig
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.block import Batch, Block, compute_ranges
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable
from repro.testing import reference_join_count


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
        assert block.pending_columns == {"a": 3, "b": 3}  # old contents + 2 appends
        assert block.num_rows == 6  # O(1), before any consolidation
        assert block.columns["a"].tolist() == [3, 1, 4, 1, 5, 9]
        assert block.columns["b"].tolist() == [0.3, 0.1, 0.4, 0.1, 0.5, 0.9]
        assert block.pending_columns == {}

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

    def test_append_in_another_column_order(self):
        # The batch's layout (b, a) is not the block's (a, b): the range
        # vectors are re-laid by name, ranged columns keeping their order.
        block = self.make_block()
        block.append_rows({"b": np.array([-0.5, 0.2]), "a": np.array([9, 2], dtype=np.int64)})
        assert list(block.ranges.items()) == [("a", (1.0, 9.0)), ("b", (-0.5, 0.4))]
        assert block.columns["a"].tolist() == [3, 1, 4, 9, 2]
        assert block.columns["b"].tolist() == [0.3, 0.1, 0.4, -0.5, 0.2]
        empty = Block(0, "t", {"a": np.empty(0, dtype=np.int64), "b": np.empty(0)})
        empty.append_rows({"b": np.array([0.5]), "a": np.array([7], dtype=np.int64)})
        assert list(empty.ranges.items()) == [("b", (0.5, 0.5)), ("a", (7.0, 7.0))]

    def test_clear_resets_all_metadata(self):
        block = self.make_block()
        block.append_rows({"a": np.array([9], dtype=np.int64), "b": np.array([0.9])})
        block.clear({"a": np.empty(0, dtype=np.int64), "b": np.empty(0)})
        assert block.num_rows == 0
        assert block.ranges == {}
        assert block.size_bytes == 0
        assert block.pending_columns == {}

    def test_column_pieces_stream_in_row_order(self):
        block = self.make_block()
        block.append_rows({"a": np.array([5], dtype=np.int64), "b": np.array([0.5])})
        pieces = block.column_pieces()
        assert [piece.tolist() for piece in pieces["a"]] == [[3, 1, 4], [5]]
        assert block.pending_columns == {"a": 2, "b": 2}  # streaming compacts nothing
        streamed = np.concatenate(pieces["a"])
        assert streamed.tolist() == block.columns["a"].tolist()

    def test_mismatched_append_columns_rejected(self):
        from repro.common.errors import StorageError

        block = self.make_block()
        with pytest.raises(StorageError):
            block.append_rows({"a": np.array([1], dtype=np.int64)})


class TestPerColumnCompaction:
    """A reader that names its columns compacts only those columns."""

    def make_block(self) -> Block:
        block = Block(
            block_id=0,
            table="t",
            columns={
                "a": np.array([3, 1], dtype=np.int64),
                "b": np.array([0.3, 0.1]),
                "c": np.array([30, 10], dtype=np.int32),
            },
        )
        for a in ([4, 1], [5]):
            block.append_rows({
                "a": np.array(a, dtype=np.int64),
                "b": np.array(a) / 10,
                "c": np.array(a, dtype=np.int32) * 10,
            })
        return block

    def test_reading_some_columns_leaves_the_rest_pending(self):
        block = self.make_block()
        arrays = block.arrays(["a", "b"])
        assert arrays["a"].tolist() == [3, 1, 4, 1, 5]
        assert arrays["b"].tolist() == [0.3, 0.1, 0.4, 0.1, 0.5]
        assert block.pending_columns == {"c": 3}
        assert arrays["c"] is None  # pending, never stale
        # A second read of the same columns serves the compacted arrays.
        assert block.arrays(["a"])["a"] is arrays["a"]
        assert block.arrays(["c"])["c"].tolist() == [30, 10, 40, 10, 50]
        assert block.pending_columns == {}
        assert list(block.columns) == ["a", "b", "c"]  # column order survives

    def test_columns_compacts_everything_and_size_is_exact(self):
        block = self.make_block()
        block.arrays(["a"])
        columns = block.columns
        assert block.pending_columns == {}
        assert columns["c"].dtype == np.int32 and columns["c"].tolist() == [30, 10, 40, 10, 50]
        assert block.size_bytes == sum(array.nbytes for array in columns.values())

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            self.make_block().arrays(["a", "missing"])["missing"]

    def test_unload_refuses_while_any_column_is_pending(self):
        from repro.common.errors import StorageError

        block = self.make_block()
        block.arrays(["a", "b"])
        block.mark_clean(lambda names: {})
        with pytest.raises(StorageError, match="unspilled"):
            block.unload()
        block.arrays(["c"])
        block.unload()
        assert not block.is_resident

    def test_a_fully_resident_block_never_calls_its_loader(self):
        block = self.make_block()
        calls: list[list[str]] = []
        spilled: dict[str, np.ndarray] = {}

        def loader(names: list[str]) -> dict[str, np.ndarray]:
            calls.append(names)
            return {name: spilled[name] for name in names}

        block.mark_clean(loader)
        block.arrays(["a"])
        block.column_pieces()
        spilled.update(block.columns)
        assert calls == [] and block.resident_bytes == block.size_bytes
        block.unload()
        assert not block.is_resident and block.resident_bytes == 0
        # One call names every absent column; then the block is whole again.
        assert list(block.columns) == ["a", "b", "c"]
        assert calls == [["a", "b", "c"]]
        block.arrays(["a", "b", "c"])
        block.column_pieces()
        assert calls == [["a", "b", "c"]] and block.resident_bytes == block.size_bytes

    def test_a_batch_column_lives_while_a_block_needs_it(self):
        # Two blocks append halves of one batch.  Each block's record keeps
        # the batch's columns alive until that block merges the column.
        rows = {"a": np.arange(4, dtype=np.int64), "b": np.arange(4) / 10}
        batch_a = weakref.ref(rows["a"])
        batch = Batch(rows)
        blocks = [Block(i, "t", {"a": np.empty(0, dtype=np.int64), "b": np.empty(0)}) for i in (0, 1)]
        for i, block in enumerate(blocks):
            block.extend(batch, 2 * i, 2 * i + 2, np.zeros(2), np.zeros(2))
        del rows, batch
        assert blocks[0].arrays(["a"])["a"].tolist() == [0, 1]
        assert batch_a() is not None  # the other block still needs it
        assert blocks[1].arrays(["a"])["a"].tolist() == [2, 3]
        assert batch_a() is None
        assert blocks[1].pending_columns == {"b": 1}
        assert blocks[1].columns["b"].tolist() == [0.2, 0.3]

    def test_an_unloaded_block_takes_appends_without_faulting(self):
        spilled = {
            "a": np.array([3, 1], dtype=np.int64),
            "b": np.array([0.3, 0.1]),
        }
        faults: list[list[str]] = []

        def loader(names: list[str]) -> dict[str, np.ndarray]:
            faults.append(names)
            return {name: spilled[name] for name in names}

        block = Block(0, "t", dict(spilled))
        block.mark_clean(loader)
        block.unload()
        block.append_rows({"a": np.array([7], dtype=np.int64), "b": np.array([0.7])})
        assert faults == [] and not block.is_resident
        assert block.num_rows == 3 and block.ranges["a"] == (1.0, 7.0)
        assert block.arrays(["a"])["a"].tolist() == [3, 1, 7]
        # The read faulted a alone; b's spilled rows are still on disk.
        assert faults == [["a"]] and block.pending_columns == {"b": 1}
        # b's fault puts its spilled rows ahead of its appended piece.
        assert block.columns["b"].tolist() == [0.3, 0.1, 0.7]
        assert faults == [["a"], ["b"]]


# --------------------------------------------------------------------- #
# Read-triggered compaction
# --------------------------------------------------------------------- #
def migrate_in_batches(table: StoredTable, join_attribute: str, batches: int = 4) -> int:
    """The smooth-repartitioning write path: a new tree on ``join_attribute``
    receives the table's blocks a few at a time, one appended chunk per target
    block per batch.  Returns the new tree's id."""
    tree = TwoPhasePartitioner(join_attribute, []).build(
        table.sample, total_rows=table.total_rows, num_leaves=4
    )
    target = table.add_empty_tree(tree)
    sources = table.non_empty_block_ids()
    for start in range(batches):
        table.move_blocks(sources[start::batches], target)
    return target


class TestReadTriggeredCompaction:
    @pytest.fixture
    def session(self, tpch_tables):
        # The memory tier is pinned: under a bounded buffer an eviction spills,
        # and so compacts, blocks no query read.
        session = Session(AdaptDBConfig(rows_per_block=32, seed=3, persistence="memory"))
        for name in ("lineitem", "orders", "part"):
            session.load_table(tpch_tables[name])
        yield session
        session.close()

    def pending(self, session, table_name: str, column: str) -> dict[int, int]:
        """Block -> pieces of ``column`` awaiting compaction."""
        return {
            block_id: session.dfs.peek_block(block_id).pending_columns.get(column, 0)
            for block_id in session.table(table_name).block_ids()
        }

    def test_a_join_compacts_exactly_the_blocks_it_reads(self, session, tpch_tables):
        migrate_in_batches(session.table("lineitem"), "l_orderkey")
        migrate_in_batches(session.table("part"), "p_retailprice")
        lineitem_before = self.pending(session, "lineitem", "l_orderkey")
        part_before = self.pending(session, "part", "p_partkey")
        unread_before = self.pending(session, "lineitem", "l_shipmode")
        assert sum(lineitem_before.values()) > 4 and sum(part_before.values()) > 4
        assert max(lineitem_before.values()) > 1, "several chunks await one block"

        query = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")
        expected = reference_join_count(
            tpch_tables["lineitem"], tpch_tables["orders"], "l_orderkey", "o_orderkey"
        )
        for _ in range(2):
            result = session.run(query, adapt=False)
            assert result.output_rows == expected
            read = {
                block_id
                for _, task in result.schedule.placements()
                for block_id in task.read_block_ids
            }
            assert {b for b, chunks in lineitem_before.items() if chunks} <= read
            assert not any(self.pending(session, "lineitem", "l_orderkey").values())
            # A column no task read, and blocks no task read, are exactly as
            # the writes left them.
            assert self.pending(session, "lineitem", "l_shipmode") == unread_before
            assert self.pending(session, "part", "p_partkey") == part_before

    def test_migration_streams_its_sources_without_compacting_them(
        self, session, tpch_tables, monkeypatch
    ):
        part = session.table("part")
        target = migrate_in_batches(part, "p_retailprice")
        sources = part.non_empty_block_ids(target)
        assert all(
            min(session.dfs.peek_block(b).pending_columns.values()) > 1 for b in sources
        )
        compacted: list[int] = []
        merge = Block._merge

        def recording(block: Block, names) -> None:
            compacted.append(block.block_id)
            merge(block, names)

        monkeypatch.setattr(Block, "_merge", recording)
        stats = part.move_blocks(sources, 0)
        assert stats.rows_moved == part.total_rows == tpch_tables["part"].num_rows
        assert not set(compacted) & set(sources)
        moved = np.concatenate(
            [session.dfs.peek_block(b).columns["p_partkey"] for b in part.block_ids(0)]
        )
        assert sorted(moved.tolist()) == sorted(tpch_tables["part"].columns["p_partkey"].tolist())
