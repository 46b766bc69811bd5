"""Tests for repro.storage.table (ColumnTable and StoredTable)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.common.errors import PartitioningError, SchemaError, StorageError
from repro.common.predicates import between, le, rows_matching
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.block import Block
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, RepartitionStats, StoredTable


def make_column_table(rows: int = 2000, name: str = "t") -> ColumnTable:
    rng = np.random.default_rng(5)
    schema = Schema.of(("key", DataType.INT), ("other", DataType.INT), ("value", DataType.FLOAT))
    columns = {
        "key": rng.integers(0, 10_000, size=rows),
        "other": rng.integers(0, 100, size=rows),
        "value": rng.uniform(0, 1, size=rows),
    }
    return ColumnTable(name, schema, columns)


def make_dfs() -> DistributedFileSystem:
    return DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(2))


def load_table(rows: int = 2000, rows_per_block: int = 256) -> StoredTable:
    table = make_column_table(rows)
    tree = UpfrontPartitioner(["key", "other"], rows_per_block).build(
        table.sample(), total_rows=table.num_rows
    )
    return StoredTable.load(table, make_dfs(), tree, rows_per_block=rows_per_block)


class TestColumnTable:
    def test_schema_validated_on_construction(self):
        schema = Schema.of(("a", DataType.INT))
        with pytest.raises(SchemaError):
            ColumnTable("bad", schema, {"b": np.arange(3)})

    def test_num_rows(self):
        assert make_column_table(123).num_rows == 123

    def test_sample_smaller_than_table(self):
        table = make_column_table(5000)
        sample = table.sample(100, make_rng(1))
        assert len(sample["key"]) == 100

    def test_select_projection(self):
        table = make_column_table(10)
        assert list(table.select(["key"])) == ["key"]


class TestStoredTableLoad:
    def test_all_rows_stored(self):
        stored = load_table(2000, 256)
        assert stored.total_rows == 2000

    def test_blocks_respect_target_size_roughly(self):
        stored = load_table(2048, 256)
        sizes = [stored.dfs.peek_block(b).num_rows for b in stored.non_empty_block_ids()]
        assert len(sizes) == 8
        assert max(sizes) <= 2.5 * 256

    def test_sample_retained(self):
        stored = load_table()
        assert "key" in stored.sample and len(stored.sample["key"]) > 0

    def test_single_tree_after_load(self):
        stored = load_table()
        assert stored.num_trees == 1

    def test_block_ownership(self):
        stored = load_table()
        tree_id = next(iter(stored.trees))
        for block_id in stored.block_ids():
            assert stored.tree_of_block(block_id) == tree_id

    def test_unknown_block_ownership_raises(self):
        with pytest.raises(StorageError):
            load_table().tree_of_block(10_000)

    def test_unknown_tree_raises(self):
        with pytest.raises(PartitioningError):
            load_table().tree(99)


class TestLookup:
    def test_lookup_without_predicates_returns_all_non_empty(self):
        stored = load_table()
        assert set(stored.lookup()) == set(stored.non_empty_block_ids())

    def test_lookup_prunes_with_predicate(self):
        stored = load_table(4000, 128)
        pruned = stored.lookup([le("key", 100)])
        assert 0 < len(pruned) < len(stored.non_empty_block_ids())

    def test_lookup_matches_actual_data(self):
        """Rows satisfying a predicate only live in blocks returned by lookup."""
        stored = load_table(4000, 128)
        predicate = between("key", 2000, 2500)
        matching_blocks = set(stored.lookup([predicate]))
        for block_id in stored.non_empty_block_ids():
            block = stored.dfs.peek_block(block_id)
            if rows_matching(block.columns, [predicate]).any():
                assert block_id in matching_blocks

    def test_lookup_can_include_empty_blocks(self):
        stored = load_table()
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=4
        )
        stored.add_empty_tree(tree)
        with_empty = stored.lookup(include_empty=True)
        without_empty = stored.lookup()
        assert len(with_empty) > len(without_empty)


class TestTreeManagement:
    def test_add_empty_tree_creates_empty_blocks(self):
        stored = load_table()
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=4
        )
        tree_id = stored.add_empty_tree(tree)
        assert stored.rows_under_tree(tree_id) == 0
        assert len(stored.block_ids(tree_id)) == 4
        assert stored.num_trees == 2

    def test_tree_for_join_attribute(self):
        stored = load_table()
        assert stored.tree_for_join_attribute("key") is None
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=4
        )
        tree_id = stored.add_empty_tree(tree)
        assert stored.tree_for_join_attribute("key") == tree_id

    def test_tree_row_fractions_sum_to_one(self):
        stored = load_table()
        fractions = stored.tree_row_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_describe_lists_trees(self):
        text = load_table().describe()
        assert "tree 0" in text and "rows" in text


class TestMoveBlocks:
    def make_migrating_table(self):
        stored = load_table(4000, 256)
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=16
        )
        target = stored.add_empty_tree(tree)
        return stored, target

    def test_rows_preserved_across_migration(self):
        stored, target = self.make_migrating_table()
        before = stored.total_rows
        moved = stored.block_ids(0)[:4]
        stats = stored.move_blocks(moved, target)
        assert stored.total_rows == before
        assert stats.rows_moved > 0
        assert 0 < stats.source_blocks <= len(moved)

    def test_key_multiset_preserved_across_migration(self):
        stored, target = self.make_migrating_table()
        def all_keys():
            return np.sort(
                np.concatenate(
                    [
                        stored.dfs.peek_block(b).column("key")
                        for b in stored.non_empty_block_ids()
                    ]
                )
            )
        before = all_keys()
        stored.move_blocks(stored.block_ids(0), target)
        assert np.array_equal(before, all_keys())

    def test_source_blocks_emptied(self):
        stored, target = self.make_migrating_table()
        moved = stored.block_ids(0)[:2]
        stored.move_blocks(moved, target)
        for block_id in moved:
            assert stored.dfs.peek_block(block_id).num_rows == 0

    def test_moving_blocks_already_in_target_is_noop(self):
        stored, target = self.make_migrating_table()
        stats = stored.move_blocks(stored.block_ids(target), target)
        assert stats.source_blocks == 0 and stats.rows_moved == 0

    def test_moved_rows_respect_target_tree_ranges(self):
        stored, target = self.make_migrating_table()
        stored.move_blocks(stored.block_ids(0), target)
        bounds = stored.tree(target).leaf_bounds("key")
        for block_id, (lo, hi) in bounds.items():
            block = stored.dfs.peek_block(block_id)
            if block.num_rows == 0:
                continue
            keys = block.column("key")
            assert keys.min() >= lo and keys.max() <= hi

    def test_full_migration_then_drop_empty_trees(self):
        stored, target = self.make_migrating_table()
        stored.move_blocks(stored.block_ids(0), target)
        removed = stored.drop_empty_trees()
        assert 0 in removed
        assert stored.num_trees == 1
        assert stored.total_rows == 4000

    def test_drop_empty_trees_keeps_at_least_one(self):
        stored = load_table(100, 256)
        # A healthy single-tree table must never lose its only tree.
        assert stored.drop_empty_trees() == []
        assert stored.num_trees == 1


class TestReplaceWithTree:
    def test_replace_rebuilds_single_tree(self):
        stored = load_table(2000, 256)
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=8
        )
        stats = stored.replace_with_tree(tree)
        assert isinstance(stats, RepartitionStats)
        assert stored.num_trees == 1
        assert stored.total_rows == 2000
        assert stored.tree_for_join_attribute("key") is not None

    def test_replace_reports_work(self):
        stored = load_table(2000, 256)
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=8
        )
        stats = stored.replace_with_tree(tree)
        assert stats.rows_moved == 2000
        assert stats.source_blocks > 0
        assert stats.target_blocks_touched == 8


class TestMutationContext:
    """Partition state changes only inside ``mutation()``, which bumps at its exit."""

    def test_primitives_refuse_to_run_outside_a_mutation(self):
        stored = load_table(2000, 256)
        block_id = stored.non_empty_block_ids()[0]
        block = stored.dfs.peek_block(block_id)
        names = list(block.columns)
        columns = [block.columns[name][:1] for name in names]
        lows = [[float(values[0]) for values in columns]]
        before = (stored.epoch, block.num_rows, stored.total_rows, stored.num_trees)
        with pytest.raises(StorageError, match="inside mutation"):
            stored._append_rows([block_id], names, columns, [0, 1], lows, lows)
        with pytest.raises(StorageError, match="inside mutation"):
            stored._clear_block(block_id)
        with pytest.raises(StorageError, match="inside mutation"):
            stored._forget_tree(0)
        assert before == (stored.epoch, block.num_rows, stored.total_rows, stored.num_trees)
        stored.audit_cached_statistics()

    def test_mutations_do_not_nest(self):
        stored = load_table(500, 256)
        before = stored.epoch
        with pytest.raises(StorageError, match="does not nest"):
            with stored.mutation(full=True):
                with stored.mutation():
                    pass
        # The outer mutation still closed: one bump, and the table is usable.
        assert stored.epoch == before + 1
        with stored.mutation():
            pass

    def test_empty_mutation_neither_bumps_nor_grows_the_chain(self):
        stored = load_table(500, 256)
        before, chain = stored.epoch, list(stored._delta_chain)
        with stored.mutation():
            pass
        assert stored.epoch == before and stored._delta_chain == chain
        with stored.mutation(full=True):
            pass
        assert stored.epoch == before + 1
        assert stored.delta_between(before, stored.epoch).full

    def test_caller_may_add_to_but_not_take_from_what_was_recorded(self):
        stored = load_table(2000, 256)
        block_id, extra_id = stored.non_empty_block_ids()[:2]
        before = stored.epoch
        with stored.mutation() as delta:
            stored._clear_block(block_id)
            delta.blocks_changed.clear()
            delta.blocks_changed.add(extra_id)
        assert stored.epoch == before + 1
        recorded = stored.delta_between(before, stored.epoch)
        assert recorded.blocks_changed == {block_id, extra_id}

    @pytest.mark.parametrize("failing", ["delete_block", "route_rows"])
    def test_failed_replace_with_tree_still_bumps(self, monkeypatch, failing):
        stored = load_table(2000, 256)
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=8
        )
        calls = []
        delete_block = stored.dfs.delete_block

        def delete_then_fail(block_id):
            if calls:
                raise RuntimeError("injected")
            calls.append(block_id)
            delete_block(block_id)

        def fail(columns):
            raise RuntimeError("injected")

        if failing == "delete_block":
            monkeypatch.setattr(stored.dfs, "delete_block", delete_then_fail)
        else:
            monkeypatch.setattr(tree, "route_rows", fail)
        before, old_blocks = stored.epoch, stored.block_ids()
        with pytest.raises(RuntimeError, match="injected"):
            stored.replace_with_tree(tree)
        # Blocks a plan cached at ``before`` names are gone, so that epoch
        # must be too, and the gap must read as "recompute everything".
        assert any(not stored.dfs.has_block(b) for b in old_blocks)
        assert stored.epoch == before + 1
        assert stored.delta_between(before, stored.epoch).full

    def test_failed_move_blocks_still_bumps_and_describes(self, monkeypatch):
        stored = load_table(4000, 256)
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=16
        )
        target = stored.add_empty_tree(tree)
        rows_before = dict(stored._block_rows)
        extend = Block.extend
        appended = []

        def extend_then_fail(block, *args):
            if appended:
                raise RuntimeError("injected")
            appended.append(block.block_id)
            extend(block, *args)

        monkeypatch.setattr(Block, "extend", extend_then_fail)
        before = stored.epoch
        with pytest.raises(RuntimeError, match="injected"):
            stored.move_blocks(stored.block_ids(0), target)
        changed = {b for b, rows in stored._block_rows.items() if rows != rows_before[b]}
        assert changed == set(appended)
        assert stored.epoch == before + 1
        assert changed <= stored.delta_between(before, stored.epoch).blocks_changed


class TestJoinRange:
    def test_join_range_of_block(self):
        stored = load_table()
        block_id = stored.non_empty_block_ids()[0]
        lo, hi = stored.join_range_of_block(block_id, "key")
        block = stored.dfs.peek_block(block_id)
        assert (lo, hi) == block.range_of("key")

    def test_join_range_of_empty_block_is_none(self):
        stored = load_table()
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=2
        )
        tree_id = stored.add_empty_tree(tree)
        empty_block = stored.block_ids(tree_id)[0]
        assert stored.join_range_of_block(empty_block, "key") is None
