"""Runtime sanitizer (REPRO_SANITIZE=1): the mutation-exit and aliasing checks.

Each check is exercised positively (a seeded contract violation raises)
and negatively (the sanctioned behaviour stays quiet, and everything is a
no-op with the sanitizer off).  CI additionally runs the whole tier-1
suite once with the sanitizer enabled, so the production code paths are
exercised under enforcement too.  ``TestFrozenViews`` pins down what the
sanitizer no longer decides: attached shared-memory views are read-only
whether it is on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.common.rng import make_rng
from repro.common.sanitize import (
    SanitizeError,
    assert_no_shared_memory,
    assert_unaliased,
    sanitize_enabled,
    set_sanitize,
)
from repro.common.schema import DataType, Schema
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.dfs import DistributedFileSystem
from repro.storage.shared_memory import (
    SharedBlockStore,
    SharedBlockView,
    SharedSegmentCache,
)
from repro.storage.table import ColumnTable, StoredTable


@pytest.fixture
def sanitize():
    """Force the sanitizer on for one test, restoring env-var control after."""
    set_sanitize(True)
    yield
    set_sanitize(None)


def make_stored(rows: int = 400, rows_per_block: int = 64) -> StoredTable:
    rng = np.random.default_rng(3)
    schema = Schema.of(("key", DataType.INT), ("value", DataType.FLOAT))
    table = ColumnTable(
        "t",
        schema,
        {
            "key": rng.integers(0, 1_000, size=rows),
            "value": rng.uniform(0, 1, size=rows),
        },
    )
    tree = UpfrontPartitioner(["key"], rows_per_block).build(
        table.sample(rng=np.random.default_rng(4)), total_rows=rows
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), rng=make_rng(5))
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


class TestSwitch:
    def test_override_beats_env(self, sanitize):
        assert sanitize_enabled()
        set_sanitize(False)
        assert not sanitize_enabled()


class TestFrozenViews:
    def test_attached_views_are_readonly(self, sanitize):
        array = np.arange(8, dtype=np.int64)
        buffer = memoryview(bytearray(array.tobytes())).toreadonly()
        view = SharedBlockView(0, (8, 0), (("key", array.dtype.str),), buffer)
        assert np.array_equal(view.columns["key"], array)
        with pytest.raises(ValueError):
            view.columns["key"][0] = 99

    def test_views_are_readonly_without_sanitizer(self):
        """A worker cannot write a pinned block, nor make its view writable."""
        set_sanitize(False)
        stored = make_stored()
        block_id = stored.non_empty_block_ids()[0]
        before = stored.dfs.peek_block(block_id).columns["key"].copy()
        store, cache, witness = SharedBlockStore(), SharedSegmentCache(), SharedSegmentCache()
        try:
            pin = store.pin_table(stored, [block_id])
            view = cache.get_blocks(pin, [block_id])[0].columns["key"]
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0] = view[0] + 1
            with pytest.raises(ValueError):
                view.setflags(write=True)
            del view
            # Neither the parent's block nor the segment every other worker
            # reads has changed.
            seen = witness.get_blocks(pin, [block_id])[0].columns["key"]
            assert np.array_equal(seen, before)
            del seen
            assert np.array_equal(stored.dfs.peek_block(block_id).columns["key"], before)
        finally:
            set_sanitize(None)
            witness.close()
            cache.close()
            store.close()


class TestDeltaCrossCheck:
    @staticmethod
    def smuggle_rows(stored, block_id):
        """Grow a block behind the mutation primitives' back."""
        block = stored.dfs.peek_block(block_id)
        block.append_rows({name: values[:1] for name, values in block.columns.items()})
        stored._block_rows[block_id] = block.num_rows

    def test_under_described_mutation_raises_at_exit(self, sanitize):
        stored = make_stored()
        block_id, other_id = stored.block_ids()[:2]
        with pytest.raises(SanitizeError, match=f"block {block_id} rows changed"):
            with stored.mutation() as delta:
                delta.blocks_changed.add(other_id)
                self.smuggle_rows(stored, block_id)

    def test_change_outside_any_mutation_raises_at_the_next_exit(self, sanitize):
        stored = make_stored()
        block_id = stored.block_ids()[0]
        self.smuggle_rows(stored, block_id)
        with pytest.raises(SanitizeError, match=f"block {block_id} rows changed"):
            with stored.mutation():
                pass

    def test_described_mutation_is_quiet(self, sanitize):
        stored = make_stored()
        block_id = stored.block_ids()[0]
        with stored.mutation() as delta:
            delta.blocks_changed.add(block_id)
            self.smuggle_rows(stored, block_id)

    def test_real_mutation_paths_verify_clean(self, sanitize):
        stored = make_stored()
        tree = UpfrontPartitioner(["value"], stored.rows_per_block).build(
            stored.sample, total_rows=stored.total_rows
        )
        target = stored.add_empty_tree(tree)
        stored.move_blocks(stored.block_ids()[:2], target)
        node, _ = stored.tree(target).bottom_internal_nodes()[0]
        stored.resplit(target, node, "key", 500.0)
        stored.drop_empty_trees()
        stored.replace_with_tree(
            UpfrontPartitioner(["key"], stored.rows_per_block).build(
                stored.sample, total_rows=stored.total_rows
            )
        )

    def test_verify_is_noop_when_disabled(self):
        set_sanitize(False)
        try:
            stored = make_stored()
            with stored.mutation():
                self.smuggle_rows(stored, stored.block_ids()[0])
        finally:
            set_sanitize(None)


class TestAliasingAsserts:
    def test_aliased_container_raises(self, sanitize):
        cached = {"t": [1, 2]}
        with pytest.raises(SanitizeError, match="aliases"):
            assert_unaliased(cached, cached, "plan")

    def test_aliased_inner_list_raises(self, sanitize):
        cached = {"t": [1, 2]}
        served = dict(cached)  # outer copied, inner shared
        with pytest.raises(SanitizeError, match="plan\\['t'\\]"):
            assert_unaliased(served, cached, "plan")

    def test_copied_containers_are_quiet(self, sanitize):
        cached = {"t": [1, 2]}
        served = {table: list(ids) for table, ids in cached.items()}
        assert_unaliased(served, cached, "plan")

    def test_shared_ndarray_storage_raises(self, sanitize):
        cached = np.zeros((3, 3), dtype=bool)
        with pytest.raises(SanitizeError, match="shares memory"):
            assert_no_shared_memory(cached[1:], cached, "overlap")
        assert_no_shared_memory(cached.copy(), cached, "overlap")
