"""Tests for the durable storage tier (repro.storage.persist).

Covers the block spill/fault protocol, the byte-budgeted buffer (hits,
faults, evictions, write-back), the peek bypass, a randomized spill/evict
audit proving buffered reads are bit-identical to the in-memory store,
checkpoint/restore of the full partition state (epochs, trees, statistics,
block change stamps, RNG states, the adaptation window, plan-cache keys), crash
consistency when a checkpoint dies between spilling blocks and renaming the
checkpoint file into place, typed errors and no writes when opening a
damaged checkpoint, the one-file-per-version spill format (round trip,
staging, typed errors for every kind of damage), eviction by the schedule's
announced future, and ``close()`` letting go of every mapping.
"""

from __future__ import annotations

import gc
import json
import mmap
import os
import struct
import subprocess
import sys
import tempfile
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import Session
from repro.common.errors import ExecutionError, PlanningError, StorageError
from repro.common.predicates import between, ge
from repro.common.query import join_query, scan_query
from repro.common.rng import make_rng
from repro.cluster.cluster import Cluster
from repro.core import AdaptDBConfig
from repro.partitioning.two_phase import TwoPhasePartitioner
from repro.storage.block import Batch, Block
from repro.storage.dfs import DistributedFileSystem
from repro.storage.persist import FORMAT_VERSION, PersistenceManager, read_checkpoint
from repro.storage.persist.serialize import column_layout, read_header, write_file
from repro.workloads.generators import switching_workload


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def mmap_config(tmp_path, name="root", buffer_bytes=None, **overrides):
    defaults = dict(
        rows_per_block=512,
        window_size=10,
        seed=3,
        persistence="mmap",
        storage_root=str(tmp_path / name),
        buffer_bytes=buffer_bytes,
    )
    defaults.update(overrides)
    return AdaptDBConfig(**defaults)


def memory_config(**overrides):
    # persistence is pinned so the suite's --mmap-buffer-bytes option
    # cannot turn the in-memory reference sessions into mmap ones.
    defaults = dict(
        rows_per_block=512, window_size=10, seed=3, persistence="memory"
    )
    defaults.update(overrides)
    return AdaptDBConfig(**defaults)


def load_session(config, tpch_tables, names=("lineitem", "orders", "part")):
    session = Session(config=config)
    for name in names:
        session.load_table(tpch_tables[name])
    return session


def adaptive_workload(queries_per_template=3, seed=1):
    """A switching workload that exercises smooth + Amoeba adaptation."""
    return switching_workload(
        ["q12", "q14", "q19", "q6"], queries_per_template, make_rng(seed)
    )


def table_epochs(session):
    return {table.name: table.epoch for table in session.catalog.tables()}


def all_block_columns(session):
    """{table: {block_id: {column: array}}} for every stored block."""
    state = {}
    for table in session.catalog.tables():
        blocks = {}
        for block_id in table.block_ids():
            block = session.dfs.peek_block(block_id)
            blocks[block_id] = {
                name: np.asarray(array).copy()
                for name, array in block.columns.items()
            }
        state[table.name] = blocks
    return state


def assert_same_block_state(actual, expected):
    assert actual.keys() == expected.keys()
    for table_name, expected_blocks in expected.items():
        actual_blocks = actual[table_name]
        assert actual_blocks.keys() == expected_blocks.keys(), table_name
        for block_id, expected_columns in expected_blocks.items():
            actual_columns = actual_blocks[block_id]
            assert actual_columns.keys() == expected_columns.keys()
            for name, expected_array in expected_columns.items():
                np.testing.assert_array_equal(
                    actual_columns[name], expected_array,
                    err_msg=f"{table_name} block {block_id} column {name}",
                )


def snapshot(root):
    """Every path under ``root`` with the bytes of each file (``None`` for
    a directory)."""
    return {
        path.relative_to(root): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def bare_tier(root, budget_bytes=None, num_machines=1):
    """A DFS wired to a fresh durable tier, without a session around it."""
    manager = PersistenceManager(Path(root), num_machines, buffer_bytes=budget_bytes)
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=num_machines), rng=make_rng(1))
    manager.attach(dfs)
    return dfs, manager


# --------------------------------------------------------------------- #
# Block spill/fault protocol
# --------------------------------------------------------------------- #
class TestBlockProtocol:
    def make_dfs_with_store(self, tmp_path):
        return bare_tier(tmp_path / "store", num_machines=2)

    def test_spill_unload_fault_round_trip(self, tmp_path):
        dfs, manager = self.make_dfs_with_store(tmp_path)
        columns = {"key": np.arange(100, dtype=np.int64)}
        block = dfs.create_block("t", columns)
        assert block.dirty and block.is_resident
        manager.store.spill(block)
        assert not block.dirty
        block.unload()
        assert not block.is_resident
        np.testing.assert_array_equal(block.columns["key"], columns["key"])
        assert block.is_resident

    def test_unload_refuses_dirty_blocks(self, tmp_path):
        dfs, manager = self.make_dfs_with_store(tmp_path)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        with pytest.raises(StorageError, match="unspilled changes"):
            block.unload()
        manager.store.spill(block)
        block.append_rows({"key": np.arange(5, dtype=np.int64)})
        assert block.dirty
        with pytest.raises(StorageError, match="unspilled changes"):
            block.unload()

    def test_append_to_unloaded_block_defers_the_fault(self, tmp_path):
        dfs, manager = self.make_dfs_with_store(tmp_path)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        manager.buffer.bind(block, manager.store.spill(block))
        block.unload()
        faults_before = manager.buffer.faults
        block.append_rows({"key": np.array([100, 101], dtype=np.int64)})
        # Metadata updated incrementally, no disk read yet.
        assert block.num_rows == 12
        assert not block.is_resident
        assert manager.buffer.faults == faults_before
        # Consuming the rows faults the on-disk prefix in, in row order.
        np.testing.assert_array_equal(
            block.columns["key"],
            np.concatenate([np.arange(10), [100, 101]]).astype(np.int64),
        )
        assert manager.buffer.faults == faults_before + 1

    def test_metadata_survives_unload(self, tmp_path):
        dfs, manager = self.make_dfs_with_store(tmp_path)
        block = dfs.create_block("t", {"key": np.arange(50, dtype=np.int64)})
        ranges, size, rows = dict(block.ranges), block.size_bytes, block.num_rows
        manager.store.spill(block)
        block.unload()
        assert block.ranges == ranges
        assert block.size_bytes == size
        assert block.num_rows == rows

    def test_versioned_spills_keep_only_referenced_files(self, tmp_path):
        dfs, manager = self.make_dfs_with_store(tmp_path)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        manager.store.spill(block)
        block.replace_columns({"key": np.arange(20, dtype=np.int64)})
        manager.store.spill(block)
        assert manager.store.live_version(block.block_id) == 2
        manager.store.mark_durable()
        removed = manager.store.gc()
        assert removed == 1  # v1 superseded
        block.unload()
        np.testing.assert_array_equal(block.columns["key"], np.arange(20))


# --------------------------------------------------------------------- #
# The LRU buffer
# --------------------------------------------------------------------- #
class TestBlockBuffer:
    def make_buffered_dfs(self, tmp_path, budget_bytes):
        dfs, manager = bare_tier(tmp_path / "buf", budget_bytes, num_machines=2)
        return dfs, manager.buffer

    def test_budget_evicts_least_recently_used_first(self, tmp_path):
        block_bytes = 100 * 8
        dfs, buffer = self.make_buffered_dfs(tmp_path, 3 * block_bytes)
        blocks = [
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
            for _ in range(3)
        ]
        assert buffer.evictions == 0
        dfs.get_block(blocks[0].block_id, 0)  # refresh 0: LRU order is 1, 2, 0
        dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
        assert buffer.evictions == 1
        assert not blocks[1].is_resident
        assert blocks[0].is_resident and blocks[2].is_resident

    def test_eviction_spills_dirty_blocks_before_dropping(self, tmp_path):
        block_bytes = 100 * 8
        dfs, buffer = self.make_buffered_dfs(tmp_path, 2 * block_bytes)
        first = dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
        assert first.dirty
        for _ in range(2):
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
        assert not first.is_resident
        # The write-back preserved the data; faulting it back is bit-exact.
        np.testing.assert_array_equal(first.columns["key"], np.arange(100))

    def test_fault_counts_and_readmits(self, tmp_path):
        block_bytes = 100 * 8
        dfs, buffer = self.make_buffered_dfs(tmp_path, 2 * block_bytes)
        blocks = [
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
            for _ in range(3)
        ]
        assert not blocks[0].is_resident
        before = buffer.faults
        _ = dfs.get_block(blocks[0].block_id, 0).columns
        assert buffer.faults == before + 1
        assert blocks[0].is_resident

    def test_hit_counted_only_for_resident_blocks(self, tmp_path):
        dfs, buffer = self.make_buffered_dfs(tmp_path, None)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        dfs.get_block(block.block_id, 0)
        assert buffer.hits == 1
        assert dfs.read_stats.buffer_hits == 1

    def test_delete_discards_without_eviction_accounting(self, tmp_path):
        dfs, buffer = self.make_buffered_dfs(tmp_path, None)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        resident_before = buffer.resident_bytes
        assert resident_before > 0
        dfs.delete_block(block.block_id)
        assert buffer.evictions == 0
        assert buffer.resident_bytes == 0

    def test_drop_resident_and_set_budget(self, tmp_path):
        dfs, buffer = self.make_buffered_dfs(tmp_path, None)
        blocks = [
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
            for _ in range(4)
        ]
        dropped = buffer.drop_resident()
        assert dropped == 4
        assert buffer.resident_bytes == 0
        assert all(not block.is_resident for block in blocks)
        for block in blocks:
            _ = dfs.get_block(block.block_id, 0).columns
        buffer.set_budget(100 * 8)
        assert buffer.resident_bytes <= 100 * 8


# --------------------------------------------------------------------- #
# peek_block bypass
# --------------------------------------------------------------------- #
class TestPeekBypass:
    def test_peek_counts_nothing_and_keeps_blocks_cold(self, tmp_path, tpch_tables):
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        buffer = session.persist.buffer
        buffer.drop_resident()
        buffer.reset_counters()
        session.dfs.reset_read_stats()
        table = session.table("part")
        for block_id in table.block_ids():
            block = session.dfs.peek_block(block_id)
            _ = block.num_rows, block.ranges, block.size_bytes
            assert not block.is_resident, "peeks must not fault columns in"
        stats = session.dfs.read_stats
        assert stats.total_reads == 0
        assert buffer.hits == buffer.faults == buffer.evictions == 0
        assert stats.buffer_hits == stats.buffer_faults == 0
        session.close()

    def test_peek_does_not_refresh_recency(self, tmp_path):
        block_bytes = 100 * 8
        dfs, _ = bare_tier(tmp_path / "peek", 3 * block_bytes, num_machines=2)
        blocks = [
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
            for _ in range(3)
        ]
        dfs.peek_block(blocks[0].block_id)  # must NOT move block 0 to MRU
        dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
        assert not blocks[0].is_resident, "peek kept the LRU victim the LRU victim"


# --------------------------------------------------------------------- #
# Randomized spill/evict audit: buffered reads == in-memory store
# --------------------------------------------------------------------- #
class TestBufferedReadsBitIdentical:
    def test_randomized_budget_churn_preserves_all_bytes(self, tmp_path, tpch_tables):
        queries = adaptive_workload(queries_per_template=2)
        reference = load_session(memory_config(), tpch_tables)
        ref_fingerprints = [r.fingerprint() for r in reference.run_workload(queries)]
        expected_state = all_block_columns(reference)
        reference.close()

        session = load_session(mmap_config(tmp_path), tpch_tables)
        buffer = session.persist.buffer
        chaos = make_rng(99)
        fingerprints = []
        for query in queries:
            # Random bounded budgets and cold resets between queries: blocks
            # spill, evict and fault continuously while answers must not move.
            roll = chaos.integers(0, 4)
            if roll == 0:
                buffer.set_budget(int(chaos.integers(50_000, 400_000)))
            elif roll == 1:
                buffer.drop_resident()
            elif roll == 2:
                buffer.set_budget(None)
            fingerprints.append(session.run(query).fingerprint())
        assert fingerprints == ref_fingerprints
        assert buffer.evictions > 0, "the audit must actually exercise eviction"
        assert buffer.faults > 0, "the audit must actually exercise faulting"
        # Every surviving block holds exactly the bytes the in-memory store has.
        assert_same_block_state(all_block_columns(session), expected_state)
        session.close()


# --------------------------------------------------------------------- #
# Checkpoint / restore
# --------------------------------------------------------------------- #
class TestCheckpointRestore:
    def test_restores_epochs_trees_statistics_and_fingerprints(
        self, tmp_path, tpch_tables
    ):
        queries = adaptive_workload()
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(queries)
        repeated = [session.run(q, adapt=False).fingerprint() for q in queries[:4]]
        epochs = table_epochs(session)
        described = session.describe()
        block_state = all_block_columns(session)
        totals = {t.name: t.total_rows for t in session.catalog.tables()}
        session.checkpoint()
        session.close()

        reopened = Session.open(tmp_path / "root")
        assert table_epochs(reopened) == epochs
        assert reopened.describe() == described
        assert {t.name: t.total_rows for t in reopened.catalog.tables()} == totals
        assert_same_block_state(all_block_columns(reopened), block_state)
        assert [
            reopened.run(q, adapt=False).fingerprint() for q in queries[:4]
        ] == repeated
        reopened.close()

    def test_restart_hits_plan_cache_on_repeated_templates(
        self, tmp_path, tpch_tables
    ):
        query = join_query(
            "lineitem", "orders", "l_orderkey", "o_orderkey",
            predicates={"lineitem": [between("l_shipdate", 0.0, 400.0)]},
        )
        session = load_session(mmap_config(tmp_path), tpch_tables)
        expected = session.run(query, adapt=False).fingerprint()
        session.checkpoint()
        session.close()

        reopened = Session.open(tmp_path / "root")
        cold = reopened.run(query, adapt=False)
        assert not cold.plan_cache_hit, "the plan cache starts empty after restart"
        assert cold.fingerprint() == expected
        warm = reopened.run(query, adapt=False)
        assert warm.plan_cache_hit, (
            "restored epochs must key the plan cache exactly as before"
        )
        assert warm.fingerprint() == expected
        reopened.close()

    def test_adaptation_continues_bit_identically_across_restart(
        self, tmp_path, tpch_tables
    ):
        queries = adaptive_workload(queries_per_template=3)
        w1, w2 = queries[:6], queries[6:]
        reference = load_session(memory_config(), tpch_tables)
        expected = [r.fingerprint() for r in reference.run_workload(w1 + w2)]
        reference.close()

        session = load_session(mmap_config(tmp_path), tpch_tables)
        first = [r.fingerprint() for r in session.run_workload(w1)]
        session.checkpoint()
        session.close()

        reopened = Session.open(tmp_path / "root")
        second = [r.fingerprint() for r in reopened.run_workload(w2)]
        assert first + second == expected, (
            "restore must reinstate RNG states, the window and change stamps "
            "so adaptation resumes exactly where the checkpoint left it"
        )
        reopened.close()

    def test_change_stamps_span_the_restart(self, tmp_path, tpch_tables):
        """A reopened table answers ``changed_since`` exactly as the saved
        one did, for every block and every epoch up to the current one."""
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(adaptive_workload(queries_per_template=2))
        assert session.table("lineitem").epoch > 1, "the workload must have adapted lineitem"

        def answers(session):
            return {
                (table.name, block_id, epoch): table.changed_since(block_id, epoch)
                for table in session.catalog.tables()
                for block_id in table.block_ids()
                for epoch in range(table.epoch + 1)
            }

        expected = answers(session)
        assert any(expected.values()) and not all(expected.values())
        session.checkpoint()
        session.close()

        reopened = Session.open(tmp_path / "root")
        assert answers(reopened) == expected
        reopened.close()

    def test_open_requires_a_catalog_and_checkpoint(self, tmp_path):
        with pytest.raises(StorageError, match="nowhere/checkpoint' is missing"):
            Session.open(tmp_path / "nowhere")
        assert not (tmp_path / "nowhere").exists()

    def test_open_refuses_another_format_version(self, tmp_path, tpch_tables):
        """A root checkpointed in another format fails typed, naming both
        versions, and is left exactly as it was (there is no migration)."""
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        root = session.storage_root
        session.close()
        stored = 9  # the last format whose config names the six constant fields
        assert stored == FORMAT_VERSION - 1
        header, samples = read_checkpoint(root)
        write_file(root / "checkpoint", {**header, "format_version": stored}, samples)

        before = snapshot(root)
        with pytest.raises(
            StorageError, match=f"version {stored}.*version {FORMAT_VERSION}"
        ):
            Session.open(root)
        assert snapshot(root) == before

    def test_fresh_session_refuses_a_checkpointed_root(self, tmp_path, tpch_tables):
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        session.close()
        with pytest.raises(StorageError, match="already holds a checkpointed"):
            Session(config=mmap_config(tmp_path))

    def test_checkpoint_requires_mmap_persistence(self, tpch_tables):
        session = load_session(memory_config(), tpch_tables, ("part",))
        with pytest.raises(StorageError, match="persistence='mmap'"):
            session.checkpoint()
        session.close()

    def test_checkpoint_on_a_closed_session_fails_typed_and_writes_nothing(
        self, tmp_path, tpch_tables
    ):
        queries = adaptive_workload()
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(queries[:3])
        expected = [session.run(q, adapt=False).fingerprint() for q in queries[:3]]
        session.checkpoint()
        session.run_workload(queries[3:6])  # dirties blocks past the checkpoint
        session.close()

        root = tmp_path / "root"
        before = sorted(root.rglob("*"))
        with pytest.raises(StorageError, match="closed"):
            session.checkpoint()
        assert sorted(root.rglob("*")) == before, "phase 1 must not have spilled"

        reopened = Session.open(root)
        assert [
            reopened.run(q, adapt=False).fingerprint() for q in queries[:3]
        ] == expected
        reopened.close()


# --------------------------------------------------------------------- #
# A damaged checkpoint
# --------------------------------------------------------------------- #
def _truncate(path, size):
    with open(path, "r+b") as handle:
        handle.truncate(size)


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _data_start(path):
    """Offset of the first column's first byte (from the file's own prefix)."""
    _, header_size, _ = struct.unpack_from("<8sII", path.read_bytes())
    return -(-(16 + header_size) // 64) * 64


#: damage -> (how the checkpoint file is damaged, what the error says).
CHECKPOINT_DAMAGE = {
    "missing": (lambda path: path.unlink(), "is missing"),
    "empty": (lambda path: _truncate(path, 0), "is empty"),
    "cut_in_header": (lambda path: _truncate(path, 40), "is truncated inside its header"),
    "cut_in_sample": (
        lambda path: _truncate(path, _data_start(path) + 12),
        "is truncated inside column",
    ),
    "bad_magic": (lambda path: _flip(path, 0), "does not start with the file magic"),
    "bad_header_crc": (lambda path: _flip(path, 30), "has a damaged header"),
    "bad_sample_crc": (
        lambda path: _flip(path, _data_start(path) + 3),
        "fails the checksum of column",
    ),
    "only_staging": (
        lambda path: path.rename(path.with_name("checkpoint.tmp")), "is missing"
    ),
}


class TestDamagedCheckpoint:
    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_a_damaged_checkpoint_fails_typed_and_the_open_writes_nothing(
        self, tmp_path, tpch_tables, damage
    ):
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        root = session.storage_root
        session.close()
        corrupt, expected = CHECKPOINT_DAMAGE[damage]
        corrupt(root / "checkpoint")

        before = snapshot(root)
        with pytest.raises(StorageError) as raised:
            Session.open(root)
        message = str(raised.value)
        assert f"storage root {str(root)!r}" in message and expected in message
        assert snapshot(root) == before, "a refused open writes nothing"


# --------------------------------------------------------------------- #
# Crash consistency
# --------------------------------------------------------------------- #
class TestCrashRecovery:
    def on_disk_versions(self, root):
        found = set()
        for machine_dir in sorted(root.glob("machine-*")):
            for entry in sorted(os.listdir(machine_dir)):
                found.add(entry)
        return found

    @staticmethod
    def die_before_writing(monkeypatch):
        def die(manager, session_arg, tables):
            raise RuntimeError("simulated crash before the checkpoint is written")

        monkeypatch.setattr(PersistenceManager, "_commit_checkpoint", die)

    @staticmethod
    def die_before_the_rename(monkeypatch, truncate=False):
        real_replace = os.replace

        def replace(source, target):
            if Path(target).name != "checkpoint":
                return real_replace(source, target)  # a spill file
            if truncate:
                _truncate(source, os.path.getsize(source) // 2)
            raise RuntimeError("simulated crash before the checkpoint rename")

        monkeypatch.setattr(os, "replace", replace)

    @pytest.mark.parametrize("crash", ["unwritten", "unrenamed", "truncated"])
    def test_crash_between_spill_and_commit_rolls_back(
        self, tmp_path, tpch_tables, monkeypatch, crash
    ):
        queries = adaptive_workload(queries_per_template=2)
        w1, w2 = queries[:4], queries[4:]
        root = tmp_path / "root"
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(w1)
        session.checkpoint()
        epochs = table_epochs(session)
        block_state = all_block_columns(session)

        # More adaptation beyond the checkpoint, then a checkpoint that dies
        # after phase 1 (spill files written) but before the rename commits:
        # before its file is written, once it is staged whole, or with a
        # truncated staging file.
        w2_fingerprints = [r.fingerprint() for r in session.run_workload(w2)]
        if crash == "unwritten":
            self.die_before_writing(monkeypatch)
        else:
            self.die_before_the_rename(monkeypatch, truncate=crash == "truncated")
        with pytest.raises(RuntimeError, match="simulated crash"):
            session.checkpoint()
        monkeypatch.undo()
        assert (root / "checkpoint.tmp").exists() == (crash != "unwritten")
        stranded = self.on_disk_versions(root)
        session.close()

        reopened = Session.open(root)
        # The previous checkpoint's state is back, bit for bit.
        assert table_epochs(reopened) == epochs
        assert_same_block_state(all_block_columns(reopened), block_state)
        # Stranded post-checkpoint spill files were garbage-collected: only
        # versions the checkpoint references remain on disk.
        remaining = self.on_disk_versions(root)
        header, _ = read_checkpoint(root)
        durable = {
            block["id"]: block["version"]
            for table in header["tables"]
            for block in table["blocks"]
        }
        for entry in remaining:
            block_id, version = entry.removeprefix("block-").split("-v")
            assert durable.get(int(block_id)) == int(version), entry
        assert remaining < stranded, "recovery must remove stranded versions"
        # Replaying the lost work reproduces the exact original outcomes.
        assert [
            r.fingerprint() for r in reopened.run_workload(w2)
        ] == w2_fingerprints
        # The next checkpoint overwrites the staging file and commits.
        reopened.checkpoint()
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == ["checkpoint"]
        reopened.close()

    def test_rollback_survives_block_deletions_after_checkpoint(
        self, tmp_path, tpch_tables
    ):
        """Deleting a block between checkpoints must not destroy the durable
        copy a crash rollback still needs."""
        root = tmp_path / "root"
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        block_state = all_block_columns(session)
        victim = session.table("part").block_ids()[0]
        # Simulate post-checkpoint adaptation dropping a block entirely.
        session.dfs.delete_block(victim)
        session.close()

        reopened = Session.open(root)
        assert_same_block_state(all_block_columns(reopened), block_state)
        reopened.close()


# --------------------------------------------------------------------- #
# The spill format: one checksummed file per block version
# --------------------------------------------------------------------- #
def version_file(store, block_id):
    """Path of a block's live spill file."""
    return (
        store.root
        / f"machine-{store.machine_of(block_id):02d}"
        / f"block-{block_id:06d}-v{store.live_version(block_id)}"
    )


def is_mapped(array):
    """Whether an array is, at the bottom of its base chain, a view of a mapping."""
    base = array
    while base is not None:
        if isinstance(base, mmap.mmap):
            return True
        base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
    return False


COLUMN_DTYPES = {
    "i8": np.dtype(np.int64),
    "f8": np.dtype(np.float64),
    "i4": np.dtype(np.int32),
    "flag": np.dtype(bool),
    "text": np.dtype("<U8"),
}


def make_columns(names, num_rows, seed):
    rng = np.random.default_rng(seed)
    columns = {}
    for name in names:
        dtype = COLUMN_DTYPES[name]
        values = rng.integers(-1000, 1000, size=num_rows)
        columns[name] = (
            np.array([f"s{v}" for v in values], dtype=dtype)
            if dtype.kind == "U"
            else values.astype(dtype)
        )
    return columns


class TestSpillFormat:
    @given(
        names=st.lists(st.sampled_from(sorted(COLUMN_DTYPES)), min_size=1, unique=True),
        num_rows=st.integers(min_value=0, max_value=40),
        appended=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_exact_read_only_and_one_file(
        self, names, num_rows, appended, seed
    ):
        with tempfile.TemporaryDirectory() as root:
            dfs, manager = bare_tier(root)
            columns = make_columns(names, num_rows, seed)
            # Explicit ranges: min/max metadata is numeric, the text column
            # only exercises the header's dtype string.
            zero_ranges = {name: (0.0, 0.0) for name in names}
            block = Block(dfs.allocate_block_id(), "t", columns, ranges=zero_ranges)
            dfs.put_block(block)
            machine_dir = version_file(manager.store, block.block_id).parent

            def evict_and_fault(expected, version):
                assert manager.buffer.drop_resident() == 1
                assert not block.is_resident
                assert sorted(os.listdir(machine_dir)) == [
                    f"block-{block.block_id:06d}-v{v}" for v in range(1, version + 1)
                ], "a version is exactly one file"
                assert all(path.is_file() for path in machine_dir.iterdir())
                faulted = block.columns
                assert list(faulted) == list(expected)
                for name, array in expected.items():
                    assert faulted[name].dtype == array.dtype
                    np.testing.assert_array_equal(faulted[name], array)
                    assert not faulted[name].flags.writeable
                    with pytest.raises(ValueError):
                        faulted[name].setflags(write=True)

            evict_and_fault(columns, version=1)
            # Re-spilled after an append: the mapped prefix plus the chunk.
            extra = make_columns(names, appended, seed + 1)
            zeros = np.zeros(len(names))
            block.extend(Batch({name: extra[name] for name in names}), 0, appended, zeros, zeros)
            evict_and_fault(
                {name: np.concatenate([columns[name], extra[name]]) for name in names},
                version=2,
            )
            manager.close()

    def test_crash_before_the_rename_leaves_only_a_staging_file(
        self, tmp_path, monkeypatch
    ):
        dfs, manager = bare_tier(tmp_path / "root")
        store = manager.store
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})

        def die(source, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", die)
        with pytest.raises(OSError, match="simulated crash"):
            store.spill(block)
        monkeypatch.undo()

        machine_dir = tmp_path / "root" / "machine-00"
        assert os.listdir(machine_dir) == [f"block-{block.block_id:06d}-v1.tmp"]
        assert block.dirty and store.live_version(block.block_id) == 0
        with pytest.raises(StorageError, match="is missing"):
            store.loader(block.block_id, 1)(["key"])  # the fault path never sees a .tmp
        assert store.gc() == 1
        assert os.listdir(machine_dir) == []
        # The block was never marked clean, so nothing was lost.
        store.spill(block)
        block.unload()
        np.testing.assert_array_equal(block.columns["key"], np.arange(10))


DAMAGE = {
    "empty": lambda path: _truncate(path, 0),
    "cut_in_prefix": lambda path: _truncate(path, 10),
    "cut_in_header": lambda path: _truncate(path, 40),
    "cut_in_column": lambda path: _truncate(path, _data_start(path) + 12),
    "flipped_header_byte": lambda path: _flip(path, 30),
    "flipped_column_byte": lambda path: _flip(path, _data_start(path) + 3),
    "deleted": lambda path: path.unlink(),
}


class TestDamagedSpillFiles:
    @pytest.fixture
    def reopened(self, tmp_path, tpch_tables):
        config = mmap_config(tmp_path, rows_per_block=128)
        session = load_session(config, tpch_tables, ("part",))
        session.checkpoint()
        session.close()
        reopened = Session.open(tmp_path / "root")
        yield reopened
        reopened.close()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_every_damage_raises_typed_at_fault_time(self, reopened, damage):
        buffer, store = reopened.persist.buffer, reopened.persist.store
        victim, intact = reopened.table("part").non_empty_block_ids()[:2]
        path = version_file(store, victim)
        DAMAGE[damage](path)

        block = reopened.dfs.get_block(victim, 0)  # metadata only: no error yet
        faults = buffer.faults
        with pytest.raises(StorageError) as raised:
            _ = block.columns
        message = str(raised.value)
        assert f"block {victim} v{store.live_version(victim)}" in message
        assert str(path) in message
        assert buffer.faults == faults, "a failed fault is not a fault"
        assert not buffer.is_resident(victim) and not block.is_resident
        # The damage is contained: other blocks still read.
        assert reopened.dfs.get_block(intact, 0).columns["p_partkey"].size > 0
        assert buffer.faults == faults + 1

    def test_column_checksums_are_read_once_per_version(self, reopened, monkeypatch):
        buffer = reopened.persist.buffer
        block_id = reopened.table("part").non_empty_block_ids()[0]
        block = reopened.dfs.get_block(block_id, 0)
        calls = []
        real_crc32 = zlib.crc32

        def counting_crc32(data, *args):
            calls.append(len(memoryview(data).cast("B")))
            return real_crc32(data, *args)

        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        num_columns = len(block.columns)
        assert len(calls) == 1 + num_columns, "first fault: header + every column"
        buffer.drop_resident()
        del calls[:]
        _ = block.columns
        assert len(calls) == 1, "a verified version re-checks only its header"


# --------------------------------------------------------------------- #
# Column-granular faults
# --------------------------------------------------------------------- #
MMAP = mmap.mmap


def mapping_of(array):
    """The mapping at the bottom of an array's base chain, or ``None``."""
    base = array
    while base is not None and not isinstance(base, MMAP):
        base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
    return base


class TestColumnGranularFaults:
    """A read faults in only the absent columns it names, with one loader
    call; the buffer charges a block for its resident columns."""

    COLUMNS = {
        "a": np.arange(100, dtype=np.int64),
        "b": np.arange(100) / 10,
        "c": np.arange(100, dtype=np.int32) * 3,
    }

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        """A spilled, evicted three-column block; every fault's names and
        every file mapping opened are recorded."""
        dfs, manager = bare_tier(tmp_path / "root")
        block = dfs.create_block("t", dict(self.COLUMNS))
        buffer = manager.buffer
        buffer.drop_resident()
        buffer.reset_counters()
        faults, maps = [], []
        fault, open_map = buffer._fault, mmap.mmap

        def recording_fault(block, raw_loader, names):
            faults.append(list(names))
            return fault(block, raw_loader, names)

        def recording_map(*args, **kwargs):
            maps.append(args)
            return open_map(*args, **kwargs)

        monkeypatch.setattr(buffer, "_fault", recording_fault)
        monkeypatch.setattr(mmap, "mmap", recording_map)
        yield dfs, manager, block, faults, maps
        manager.close()

    def test_a_read_faults_only_its_named_columns(self, cold):
        dfs, manager, block, faults, maps = cold
        arrays = dfs.get_block(block.block_id, 0).arrays(["a"])
        np.testing.assert_array_equal(arrays["a"], self.COLUMNS["a"])
        assert arrays["b"] is None and arrays["c"] is None
        assert faults == [["a"]] and len(maps) == 1
        # The buffer charges the resident column, not the block's size.
        assert block.resident_bytes == self.COLUMNS["a"].nbytes < block.size_bytes
        assert manager.buffer.resident_bytes == block.resident_bytes

    def test_a_later_read_faults_only_its_column_and_reuses_the_mapping(self, cold):
        dfs, manager, block, faults, maps = cold
        first = dfs.get_block(block.block_id, 0).arrays(["a"])["a"]
        arrays = dfs.get_block(block.block_id, 0).arrays(["a", "b"])
        assert faults == [["a"], ["b"]]
        assert len(maps) == 1, "the second fault maps nothing new"
        assert arrays["a"] is first
        mapping = mapping_of(arrays["b"])
        assert mapping is not None and mapping is mapping_of(first)
        np.testing.assert_array_equal(arrays["b"], self.COLUMNS["b"])
        assert manager.buffer.resident_bytes == block.resident_bytes == (
            self.COLUMNS["a"].nbytes + self.COLUMNS["b"].nbytes
        )
        # A fully evicted block holds no mapping; the next fault maps again.
        alive = weakref.ref(mapping)
        del first, arrays, mapping
        manager.buffer.drop_resident()
        assert alive() is None
        dfs.get_block(block.block_id, 0).arrays(["c"])
        assert faults == [["a"], ["b"], ["c"]] and len(maps) == 2

    def test_a_column_first_read_later_is_still_verified(self, cold):
        """Verifying the columns one read names leaves the others of that
        version unverified: damage to one is caught on its first read."""
        dfs, manager, block, faults, maps = cold
        arrays = dfs.get_block(block.block_id, 0).arrays(["a", "b"])
        path = version_file(manager.store, block.block_id)
        header, data_start = read_header(path.read_bytes(), StorageError)
        layout = column_layout(json.loads(header)["columns"], data_start)
        _flip(path, next(offset for name, _, _, offset, _ in layout if name == "c") + 1)
        with pytest.raises(StorageError) as raised:
            dfs.get_block(block.block_id, 0).arrays(["c"])
        message = str(raised.value)
        assert f"block {block.block_id} v1" in message and str(path) in message
        assert "fails the checksum of column 'c'" in message
        assert faults == [["a", "b"], ["c"]] and manager.buffer.faults == 1
        after = block.arrays(["a"])  # the failed fault changed nothing
        assert after["a"] is arrays["a"] and after["c"] is None

    def test_an_append_to_a_partly_resident_block_keeps_every_row(self, cold):
        dfs, manager, block, faults, maps = cold
        dfs.get_block(block.block_id, 0).arrays(["a"])
        extra = {"a": np.array([-1], dtype=np.int64), "b": np.array([0.5]),
                 "c": np.array([7], dtype=np.int32)}
        block.append_rows(extra)
        expected = {
            name: np.concatenate([column, extra[name]]) for name, column in self.COLUMNS.items()
        }
        # b faults its spilled rows in as old contents, ahead of the append.
        np.testing.assert_array_equal(block.arrays(["b"])["b"], expected["b"])
        assert faults == [["a"], ["b"]]
        # The write-back of the evicted dirty block faults c and keeps it too.
        manager.buffer.drop_resident()
        assert faults == [["a"], ["b"], ["c"]]
        for name, column in block.columns.items():
            np.testing.assert_array_equal(column, expected[name])

    def test_a_hit_is_a_read_of_a_resident_block_and_a_fault_one_loader_call(self, cold):
        """One ``get_block`` of a block holding some column is a hit; one
        loader call is a fault, so a read that finds a named column absent in
        a resident block counts both."""
        dfs, manager, block, faults, maps = cold
        buffer, stats = manager.buffer, dfs.read_stats
        counts = []
        for names in (["a"], ["a"], ["a", "b"], ["b", "c"], ["c"], []):
            dfs.get_block(block.block_id, 0).arrays(names)
            counts.append((buffer.hits, buffer.faults))
        assert counts == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 3), (5, 3)]
        assert (stats.buffer_hits, stats.buffer_faults) == counts[-1]
        assert faults == [["a"], ["b"], ["c"]]


# --------------------------------------------------------------------- #
# Eviction by the announced future
# --------------------------------------------------------------------- #
class TestAnnouncedFuture:
    BLOCK_BYTES = 100 * 8

    def cold_blocks(self, tmp_path, count, capacity):
        """``count`` equal-sized spilled blocks under a ``capacity``-block budget,
        plus the list every eviction appends its victim to."""
        dfs, manager = bare_tier(tmp_path / "root")
        buffer = manager.buffer
        ids = [
            dfs.create_block("t", {"key": np.full(100, i, dtype=np.int64)}).block_id
            for i in range(count)
        ]
        buffer.drop_resident()
        buffer.reset_counters()
        buffer.set_budget(capacity * self.BLOCK_BYTES)
        victims = []
        evict = buffer._evict
        buffer._evict = lambda block_id: (victims.append(block_id), evict(block_id))
        return dfs, buffer, ids, victims

    REFERENCES = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]

    def read(self, dfs, ids, references):
        for reference in references:
            assert dfs.get_block(ids[reference], 0).columns["key"][0] == reference

    def test_unannounced_reads_evict_least_recently_used(self, tmp_path):
        dfs, buffer, ids, victims = self.cold_blocks(tmp_path, count=4, capacity=3)
        self.read(dfs, ids, self.REFERENCES)
        # A cyclic scan one block larger than the buffer: LRU always evicts
        # the block it needs next.
        assert buffer.faults == 12 and buffer.hits == 0
        assert victims == [ids[i] for i in (0, 1, 2, 3, 0, 1, 2, 3, 0)]

    def test_announced_reads_evict_the_farthest_next_use(self, tmp_path):
        dfs, buffer, ids, victims = self.cold_blocks(tmp_path, count=4, capacity=3)
        dfs.announce(ids[reference] for reference in self.REFERENCES)
        self.read(dfs, ids, self.REFERENCES)
        # Belady's count for this string: 4 cold faults + 2; the last victim
        # is block 0, which has no use left (none-announced goes first).
        assert buffer.faults == 6 and buffer.hits == 6
        assert victims == [ids[2], ids[1], ids[0]]

    def test_a_batch_read_keeps_what_it_has_handed_out(self, tmp_path):
        """``get_blocks`` hands a task's blocks out before the consumer walks
        them: a resident block of the batch is still ahead, not used up."""
        dfs, buffer, ids, victims = self.cold_blocks(tmp_path, count=4, capacity=2)
        self.read(dfs, ids, [3, 2])  # resident: 3 (LRU), 2
        buffer.reset_counters()
        del victims[:]
        dfs.announce([ids[0], ids[1], ids[2]])
        for block, expected in zip(dfs.get_blocks([ids[0], ids[1], ids[2]], 0), (0, 1, 2)):
            assert block.columns["key"][0] == expected
        assert victims == [ids[3], ids[0]]
        assert buffer.faults == 2 and buffer.hits == 1

    def pressured_session(self, tmp_path, tpch_tables, name):
        return load_session(
            mmap_config(tmp_path, name=name, buffer_bytes=192 * 1024), tpch_tables
        )

    def test_the_hint_is_advisory(self, tmp_path, tpch_tables, monkeypatch):
        """Without the announcement the same stream gives the same answers and
        fingerprints under plain LRU — only the fault count differs."""
        queries = adaptive_workload(queries_per_template=2)
        session = self.pressured_session(tmp_path, tpch_tables, "announced")
        announced = session.run_workload(queries)
        announced_faults = session.persist.buffer.faults
        session.close()

        monkeypatch.setattr(DistributedFileSystem, "announce", lambda self, ids: None)
        session = self.pressured_session(tmp_path, tpch_tables, "lru")
        unannounced = session.run_workload(queries)
        lru_faults = session.persist.buffer.faults
        session.close()

        assert [r.fingerprint() for r in announced] == [r.fingerprint() for r in unannounced]
        assert [r.output_rows for r in announced] == [r.output_rows for r in unannounced]
        # Exact, repeating counts (the stream and the policy are deterministic).
        assert (lru_faults, announced_faults) == (LRU_FAULTS, ANNOUNCED_FAULTS)
        assert announced_faults < lru_faults

    def test_a_stale_hint_is_replaced_by_the_next_execution(
        self, tmp_path, tpch_tables, monkeypatch
    ):
        from repro.exec import engine

        session = self.pressured_session(tmp_path, tpch_tables, "stale")
        buffer = session.persist.buffer
        join = join_query("lineitem", "orders", "l_orderkey", "o_orderkey")

        def die(work, fetch):
            raise RuntimeError("kernel failed mid-query")

        monkeypatch.setattr(engine, "run_task", die)
        with pytest.raises(ExecutionError, match="mid-query") as failed:
            session.run(join, adapt=False)
        assert isinstance(failed.value.__cause__, RuntimeError)
        monkeypatch.undo()
        lineitem = set(session.table("lineitem").block_ids())
        assert lineitem & set(buffer._uses), "the failed query left its hint behind"

        part = set(session.table("part").block_ids())
        result = session.run(scan_query("part", [ge("p_size", 10.0)]), adapt=False)
        assert result.output_rows > 0
        assert set(buffer._uses) <= part and set(buffer._handed) <= part
        session.close()


#: Faults of ``test_the_hint_is_advisory``'s stream under each policy, one per
#: loader call (175 and 119 while a fault mapped every column of a block).
LRU_FAULTS, ANNOUNCED_FAULTS = 130, 109


# --------------------------------------------------------------------- #
# close() lets go of every mapping
# --------------------------------------------------------------------- #
class TestCloseUnmaps:
    def mappings_under(self, root):
        with open("/proc/self/maps") as maps:
            return [line for line in maps if str(root) in line]

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
    def test_no_mapping_outlives_close(self, tmp_path, tpch_tables):
        queries = adaptive_workload(queries_per_template=2)
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(queries[:4])
        session.checkpoint()
        session.close()

        root = tmp_path / "root"
        reopened = Session.open(root)
        reopened.persist.buffer.set_budget(256 * 1024)
        # Cold reads map files; the adaptive queries then append to mapped
        # blocks, leaving dirty blocks whose prefix is still a mapping.
        reopened.run_workload(queries[:4], adapt=False)
        reopened.run_workload(queries[4:])
        blocks = [
            reopened.dfs.peek_block(block_id)
            for table in reopened.catalog.tables()
            for block_id in table.block_ids()
        ]

        def mapped_blocks():
            return [
                block.block_id
                for block in blocks
                if block.is_resident
                for pieces in block.column_pieces().values()
                if any(is_mapped(array) for array in pieces)
            ]

        assert mapped_blocks() and self.mappings_under(root)
        evictions = reopened.persist.buffer.evictions
        reopened.close()  # and no gc.collect(): the session is still referenced
        assert mapped_blocks() == []
        assert self.mappings_under(root) == []
        assert reopened.persist.buffer.evictions == evictions, "nothing was evicted for space"
        # A closed session still reads through the in-process backends.
        assert reopened.run(queries[0], adapt=False).output_rows >= 0
        reopened.close()

    def test_a_closed_session_is_freed_by_reference_counting(self, tmp_path, tpch_tables):
        session = load_session(mmap_config(tmp_path, buffer_bytes=256 * 1024), tpch_tables)
        session.run_workload(adaptive_workload(queries_per_template=1))
        session.checkpoint()
        session.run_workload(adaptive_workload(queries_per_template=1, seed=2))
        dfs = weakref.ref(session.dfs)
        gc.collect()
        gc.disable()
        try:
            session.close()
            del session
            assert dfs() is None, "the closed session's DFS waits for the cycle collector"
        finally:
            gc.enable()


# --------------------------------------------------------------------- #
# Read-triggered compaction under a bounded buffer
# --------------------------------------------------------------------- #
class TestCompactionUnderTheBuffer:
    """Compaction runs inside a task's gather, after
    ``BlockBuffer.touch`` charged the block; residency accounting and
    restart bit-identity must not notice."""

    BUDGET = 256 * 1024

    def test_a_join_read_faults_an_appended_to_cold_block_once_and_charges_it(
        self, tmp_path, tpch_tables, monkeypatch
    ):
        session = load_session(
            mmap_config(tmp_path), tpch_tables, names=("lineitem", "orders")
        )
        lineitem, buffer = session.table("lineitem"), session.persist.buffer
        tree = TwoPhasePartitioner("l_partkey", []).build(
            lineitem.sample, total_rows=lineitem.total_rows, num_leaves=8
        )
        target = lineitem.add_empty_tree(tree)
        sources = lineitem.non_empty_block_ids()
        lineitem.move_blocks(sources[::2], target)
        session.checkpoint()
        buffer.set_budget(self.BUDGET)
        buffer.drop_resident()
        # The write path: rows land on evicted, clean blocks without a fault.
        lineitem.move_blocks(sources[1::2], target)
        appended = [session.dfs.peek_block(b) for b in lineitem.non_empty_block_ids(target)]
        assert len(appended) == 8
        for block in appended:
            assert not block.is_resident and block.dirty
            assert set(block.pending_columns.values()) == {1}

        # Per block, the names of each fault, one list per residency: an
        # eviction (whose write-back faults the absent columns) ends one.
        residencies: dict[int, list[list[list[str]]]] = {}
        evictions: dict[int, int] = {}
        fault, evict = buffer._fault, buffer._evict

        def counting_fault(block, raw_loader, names):
            residencies.setdefault(block.block_id, [[]])[-1].append(list(names))
            return fault(block, raw_loader, names)

        def counting_evict(block_id):
            evictions[block_id] = evictions.get(block_id, 0) + 1
            evict(block_id)
            residencies.setdefault(block_id, [[]]).append([])

        monkeypatch.setattr(buffer, "_fault", counting_fault)
        monkeypatch.setattr(buffer, "_evict", counting_evict)
        result = session.run(
            join_query("lineitem", "orders", "l_orderkey", "o_orderkey"), adapt=False
        )
        assert result.output_rows == tpch_tables["lineitem"].num_rows
        stayed = 0
        for block in appended:
            # A residency starts with the join's read, which faults its key
            # column alone, and faults a column at most once: compaction
            # itself never re-reads the file.
            for faults in residencies[block.block_id]:
                if faults:
                    assert faults[0] == ["l_orderkey"]
                    names = [name for names in faults for name in names]
                    assert len(names) == len(set(names))
            assert "l_orderkey" not in block.pending_columns
            if block.block_id not in evictions:
                stayed += 1
                assert block.is_resident and block.dirty
                assert all(array.flags.owndata for array in block.columns.values())
        assert stayed, "at least one compacted block was still resident at the end"

        resident = [
            session.dfs.get_block(block_id, 0)  # the next touch recharges
            for table in session.catalog.tables()
            for block_id in table.block_ids()
            if buffer.is_resident(block_id)
        ]
        assert buffer.resident_bytes == sum(block.resident_bytes for block in resident)
        session.close()

    def test_a_restart_mid_stream_changes_no_fingerprint(self, tmp_path, tpch_tables):
        queries = adaptive_workload(queries_per_template=3)
        straight = load_session(
            mmap_config(tmp_path, "straight", buffer_bytes=self.BUDGET), tpch_tables
        )
        expected = [r.fingerprint() for r in straight.run_workload(queries)]
        straight.close()

        session = load_session(
            mmap_config(tmp_path, buffer_bytes=self.BUDGET), tpch_tables
        )
        first = [r.fingerprint() for r in session.run_workload(queries[:5])]
        session.checkpoint()
        session.close()
        reopened = Session.open(tmp_path / "root")
        assert reopened.persist.buffer.budget_bytes == self.BUDGET
        second = [r.fingerprint() for r in reopened.run_workload(queries[5:])]
        assert reopened.persist.buffer.faults > 0
        reopened.close()
        assert first + second == expected


# --------------------------------------------------------------------- #
# Config knobs
# --------------------------------------------------------------------- #
class TestPersistenceConfig:
    def test_memory_sessions_reject_storage_knobs(self):
        with pytest.raises(PlanningError, match="storage_root"):
            AdaptDBConfig(persistence="memory", storage_root="/tmp/x")
        with pytest.raises(PlanningError, match="buffer_bytes"):
            AdaptDBConfig(persistence="memory", buffer_bytes=1024)
        with pytest.raises(PlanningError, match="persistence"):
            AdaptDBConfig(persistence="disk")

    def test_the_library_ignores_the_environment(
        self, monkeypatch, tmp_path, tpch_tables, request
    ):
        """Variables that once set the defaults change nothing: a config is
        what its constructor was given, and a generated root goes under the
        system temp dir."""
        # The names are built so that CI's search for them in src/ and
        # tests/ finds only code that still uses them.
        for suffix, value in (("PERSISTENCE", "mmap"), ("BUFFER_BYTES", "123456"),
                              ("STORAGE_ROOT", str(tmp_path / "parent"))):
            monkeypatch.setenv("REPRO_" + suffix, value)
        if request.config.getoption("--mmap-buffer-bytes") is None:
            config = AdaptDBConfig()
            assert config.persistence == "memory"
            assert config.buffer_bytes is None
        session = load_session(AdaptDBConfig(rows_per_block=512, seed=3, persistence="mmap"),
                               tpch_tables, ("part",))
        try:
            root = session.storage_root
            assert root is not None and root.name.startswith("repro-storage-")
            assert root.parent == Path(tempfile.gettempdir())
            assert not (tmp_path / "parent").exists()
            # A generated root never leaks into the (shareable) config: a
            # second session built from the same config gets its own root.
            assert session.config.storage_root is None
        finally:
            session.close()

    def test_mmap_buffer_bytes_option_fills_unset_fields(self, request):
        """``--mmap-buffer-bytes N`` runs every config that does not pick its
        persistence on the mmap tier with an N-byte buffer; an explicit
        argument wins.  Without the option, the test reruns itself with it."""
        budget = request.config.getoption("--mmap-buffer-bytes")
        if budget is None:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--mmap-buffer-bytes=4096", request.node.nodeid],
                cwd=request.config.rootpath,
                capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0 and "1 passed" in run.stdout, run.stdout + run.stderr
            return
        config = AdaptDBConfig()
        assert (config.persistence, config.buffer_bytes) == ("mmap", budget)
        assert AdaptDBConfig(persistence="mmap", buffer_bytes=None).buffer_bytes is None
        explicit = AdaptDBConfig(persistence="memory")
        assert (explicit.persistence, explicit.buffer_bytes) == ("memory", None)

    def test_scan_results_match_memory_mode(self, tmp_path, tpch_tables):
        query = scan_query("part", [ge("p_size", 10.0)])
        memory = load_session(memory_config(), tpch_tables, ("part",))
        expected = memory.run(query).fingerprint()
        memory.close()
        session = load_session(
            mmap_config(tmp_path, buffer_bytes=64 * 1024), tpch_tables, ("part",)
        )
        result = session.run(query)
        assert result.fingerprint() == expected
        assert result.buffer_hits + result.buffer_faults > 0
        session.close()
