"""Tests for repro.storage.table (ColumnTable and StoredTable)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import Session
from repro.cluster import Cluster
from repro.common.errors import PartitioningError, SchemaError, StorageError
from repro.common.predicates import between, le, rows_matching
from repro.common.query import join_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.core import AdaptDBConfig
from repro.partitioning.tree import PartitioningTree
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.block import Block, concatenate_columns
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, RepartitionStats, StoredTable
from repro.testing import reference_join_count


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
        block_id = stored.block_ids()[0]
        before = stored.epoch
        with pytest.raises(StorageError, match="does not nest"):
            with stored.mutation():
                stored._open_block(block_id)
                with stored.mutation():
                    pass
        # The outer mutation still closed: one bump, and the table is usable.
        assert stored.epoch == before + 1
        assert stored.changed_since(block_id, before)
        with stored.mutation():
            pass

    def test_empty_mutation_neither_bumps_nor_stamps(self):
        stored = load_table(500, 256)
        before, stamps = stored.epoch, dict(stored._written_at)
        with stored.mutation():
            pass
        assert stored.epoch == before and stored._written_at == stamps
        assert not any(stored.changed_since(b, before) for b in stored.block_ids())

    def test_a_raising_mutation_still_bumps_and_stamps_what_it_touched(self):
        stored = load_table(2000, 256)
        block_id = stored.non_empty_block_ids()[0]
        before = stored.epoch
        with pytest.raises(InjectedFault):
            with stored.mutation():
                stored._clear_block(block_id)
                raise InjectedFault("after the write")
        assert stored.epoch == before + 1
        assert [b for b in stored.block_ids() if stored.changed_since(b, before)] == [block_id]


# --------------------------------------------------------------------- #
# A failure anywhere inside any mutation leaves a described state
# --------------------------------------------------------------------- #
class InjectedFault(RuntimeError):
    """Raised in place of the k-th call of a fault point."""


PRIMITIVES = (
    "_materialize_tree", "_register_block", "_append_rows",
    "_clear_block", "_rewrite_block", "_forget_tree",
)
#: Where a fault is injected.  The mutation primitives fail as they are
#: entered; the writes inside them (a block append, a block deletion, the
#: routing of a new tree's rows) fail half-way through a primitive.
FAULT_POINTS = {
    **{name: (StoredTable, name) for name in PRIMITIVES},
    "Block.extend": (Block, "extend"),
    "DistributedFileSystem.delete_block": (DistributedFileSystem, "delete_block"),
    "PartitioningTree.route_rows": (PartitioningTree, "route_rows"),
}
ENTRY_POINTS = (
    "load", "move_blocks", "resplit", "add_empty_tree", "drop_empty_trees", "replace_with_tree",
)
JOIN = join_query("t", "u", "key", "key", predicates={"t": [between("other", 10, 70)]})


def dimension_table() -> ColumnTable:
    keys = np.arange(0, 10_000, 3, dtype=np.int64)
    schema = Schema.of(("key", DataType.INT), ("weight", DataType.FLOAT))
    return ColumnTable("u", schema, {"key": keys, "weight": keys / 7.0})


def leaf_bounds(node, path: tuple = ()) -> dict[int, tuple]:
    """Block id -> the splits on the path from ``node`` down to its leaf."""
    if node.is_leaf:
        return {node.block_id: path}
    split = (node.attribute, node.cutpoint)
    return {
        **leaf_bounds(node.left, (*path, (*split, "<="))),
        **leaf_bounds(node.right, (*path, (*split, ">"))),
    }


@dataclass
class PartitionSnapshot:
    """A table's partition state, observed directly: the oracle of its stamps."""

    blocks: dict[int, tuple[int, bytes]]  # block id -> (rows, content digest)
    leaves: dict[int, tuple[int, tuple]]  # block id -> (tree id, leaf bounds)
    registered: dict[int, frozenset[int]]  # tree id -> the block ids registered under it
    next_tree_id: int

    @classmethod
    def capture(cls, stored: StoredTable) -> "PartitionSnapshot":
        blocks = {}
        for block_id, rows in stored._block_rows.items():
            columns = stored.dfs.peek_block(block_id).columns
            digest = hashlib.blake2b(digest_size=16)
            for name in sorted(columns):
                digest.update(np.ascontiguousarray(columns[name]).tobytes())
            blocks[block_id] = (rows, digest.digest())
        leaves = {
            block_id: (tree_id, bounds)
            for tree_id, tree in stored.trees.items()
            for block_id, bounds in leaf_bounds(tree.root).items()
        }
        owners = stored._block_to_tree
        registered = {
            tree_id: frozenset(b for b, owner in owners.items() if owner == tree_id)
            for tree_id in set(owners.values())
        }
        return cls(blocks, leaves, registered, stored._next_tree_id)

    def undescribed(self, after: "PartitionSnapshot", stored: StoredTable, epoch: int) -> list[str]:
        """Every block that changed from this snapshot to ``after`` but is
        not ``stored.changed_since(epoch)``.

        A block changed if it appeared or vanished, or its rows, content
        digest, tree or leaf bounds differ; a tree added to or dropped from
        the statistics changed all of its blocks.
        """
        changed = {
            block_id
            for before, now in ((self.blocks, after.blocks), (self.leaves, after.leaves))
            for block_id in before.keys() | now.keys()
            if before.get(block_id) != now.get(block_id)
        }
        for tree_id in self.registered.keys() | after.registered.keys():
            old, new = self.registered.get(tree_id), after.registered.get(tree_id)
            if old != new:
                changed |= (old or frozenset()) | (new or frozenset())
        return [
            f"block {block_id}"
            for block_id in sorted(changed)
            if not stored.changed_since(block_id, epoch)
        ]


def two_phase_tree(stored: StoredTable, num_leaves: int = 8) -> PartitioningTree:
    return TwoPhasePartitioner("key", ["other"]).build(
        stored.sample, total_rows=stored.total_rows, num_leaves=num_leaves
    )


def stage(entry: str, session: Session):
    """Set up ``entry`` on table ``t`` of ``session``; returns the call to fail."""
    if entry == "load":
        return lambda: session.load_table(make_column_table())
    stored = session.table("t")
    if entry == "move_blocks":
        target = stored.add_empty_tree(two_phase_tree(stored))
        return lambda: stored.move_blocks(stored.block_ids(0), target)
    if entry == "resplit":
        node = stored.tree(0).bottom_internal_nodes()[0]
        return lambda: stored.resplit(0, node, "value", 0.5)
    if entry == "add_empty_tree":
        return lambda: stored.add_empty_tree(two_phase_tree(stored))
    if entry == "drop_empty_trees":
        target = stored.add_empty_tree(two_phase_tree(stored))
        stored.add_empty_tree(two_phase_tree(stored, num_leaves=2))
        stored.move_blocks(stored.block_ids(0), target)
        return stored.drop_empty_trees  # forgets tree 0 and the 2-leaf tree
    return lambda: stored.replace_with_tree(two_phase_tree(stored))


def run_with_fault(monkeypatch, entry: str, fault: str, k: int) -> int:
    """Run ``entry`` with ``fault`` raising at its ``k``-th call (none for
    ``k = 0``), check what it left behind, and return the calls seen."""
    session = Session(AdaptDBConfig(rows_per_block=256, num_machines=4, seed=3,
                                    persistence="memory"))
    session.load_table(dimension_table())
    if entry != "load":
        session.load_table(make_column_table())
    call = stage(entry, session)
    subject: list[StoredTable] = []
    if entry != "load":
        session.run(JOIN, adapt=False)  # plans cached at the old epoch
        subject.append(session.table("t"))
        before = PartitionSnapshot.capture(subject[0])
    else:
        before = PartitionSnapshot({}, {}, {}, 0)
    epoch = subject[0].epoch if subject else 0

    owner, name = FAULT_POINTS[fault]
    original, mutation = getattr(owner, name), StoredTable.mutation
    calls = 0

    def faulty(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == k:
            raise InjectedFault(fault)
        return original(*args, **kwargs)

    def capturing_mutation(self, *args, **kwargs):  # the table ``load`` builds
        if not subject:
            subject.append(self)
        return mutation(self, *args, **kwargs)

    failed = False
    with monkeypatch.context() as patch:
        patch.setattr(owner, name, faulty)
        patch.setattr(StoredTable, "mutation", capturing_mutation)
        try:
            call()
        except InjectedFault:
            failed = True
    assert failed == (0 < k <= calls)

    stored = subject[0]
    after = PartitionSnapshot.capture(stored)
    changed, advanced = after != before, stored.epoch != epoch
    # The epoch advanced if and only if something changed.  A write failing
    # half-way through a primitive may leave it advanced over a recorded
    # change it never made.
    assert advanced or not changed
    if fault in PRIMITIVES:
        assert advanced == changed
    assert before.undescribed(after, stored, epoch) == []

    # The next query answers from what the table's trees now hold.
    if "t" not in session.catalog:
        session.load_table(make_column_table())
    contents = [
        session.dfs.peek_block(block_id).columns
        for block_id in session.table("t").lookup()
    ]
    current = ColumnTable("t", stored.schema, concatenate_columns(contents, stored.schema))
    result = session.run(JOIN, adapt=False)
    assert result.output_rows == reference_join_count(
        current, dimension_table(), "key", "key", JOIN.predicates_on("t")
    )
    session.close()
    return calls


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("fault", sorted(FAULT_POINTS))
def test_a_failure_anywhere_leaves_a_described_state(monkeypatch, fault, entry):
    """Raise at every call of every fault point inside every entry point:
    the epoch and the block stamps cover whatever happened before the raise,
    and the next query is answered from what the table now holds."""
    calls = run_with_fault(monkeypatch, entry, fault, 0)
    for k in range(1, calls + 1):
        run_with_fault(monkeypatch, entry, fault, k)


class TestJoinRange:
    def test_join_range_of_block(self):
        stored = load_table()
        block_id = stored.non_empty_block_ids()[0]
        lo, hi = stored.dfs.peek_range(block_id, "key")
        block = stored.dfs.peek_block(block_id)
        assert (lo, hi) == block.range_of("key")

    def test_join_range_of_empty_block_is_none(self):
        stored = load_table()
        tree = TwoPhasePartitioner("key", ["other"]).build(
            stored.sample, total_rows=stored.total_rows, num_leaves=2
        )
        tree_id = stored.add_empty_tree(tree)
        empty_block = stored.block_ids(tree_id)[0]
        assert stored.dfs.peek_range(empty_block, "key") is None
