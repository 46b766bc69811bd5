"""Tests for the durable storage tier (repro.storage.persist).

Covers the block spill/fault protocol, the byte-budgeted LRU buffer (hits,
faults, evictions, write-back), the peek bypass, a randomized spill/evict
audit proving buffered reads are bit-identical to the in-memory store,
checkpoint/restore of the full partition state (epochs, trees, statistics,
delta chains, RNG states, the adaptation window, plan-cache keys), and
crash consistency when a checkpoint dies between spilling blocks and
committing the catalog.
"""

from __future__ import annotations

import os
import sqlite3

import numpy as np
import pytest

from repro.api.session import Session
from repro.common.errors import PlanningError, StorageError
from repro.common.predicates import between, ge
from repro.common.query import join_query, scan_query
from repro.common.rng import make_rng
from repro.common.sanitize import set_sanitize
from repro.core import AdaptDBConfig
from repro.storage.dfs import DistributedFileSystem
from repro.storage.persist import FORMAT_VERSION, PersistenceManager
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
    # persistence is pinned so the CI job's REPRO_PERSISTENCE=mmap override
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


# --------------------------------------------------------------------- #
# Block spill/fault protocol
# --------------------------------------------------------------------- #
class TestBlockProtocol:
    def make_dfs_with_store(self, tmp_path):
        from repro.cluster.cluster import Cluster

        manager = PersistenceManager(tmp_path / "store", num_machines=2)
        dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), rng=make_rng(1))
        manager.attach(dfs)
        return dfs, manager

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
        from repro.cluster.cluster import Cluster

        manager = PersistenceManager(tmp_path / "buf", 2, buffer_bytes=budget_bytes)
        dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), rng=make_rng(1))
        manager.attach(dfs)
        return dfs, manager.buffer

    def test_budget_evicts_least_recently_used_first(self, tmp_path):
        block_bytes = 100 * 8
        dfs, buffer = self.make_buffered_dfs(tmp_path, 3 * block_bytes)
        blocks = [
            dfs.create_block("t", {"key": np.arange(100, dtype=np.int64)})
            for _ in range(3)
        ]
        assert buffer.evictions == 0
        dfs.get_block(blocks[0].block_id)  # refresh 0: LRU order is 1, 2, 0
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
        _ = dfs.get_block(blocks[0].block_id).columns
        assert buffer.faults == before + 1
        assert blocks[0].is_resident

    def test_hit_counted_only_for_resident_blocks(self, tmp_path):
        dfs, buffer = self.make_buffered_dfs(tmp_path, None)
        block = dfs.create_block("t", {"key": np.arange(10, dtype=np.int64)})
        dfs.get_block(block.block_id)
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
            _ = dfs.get_block(block.block_id).columns
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
        from repro.cluster.cluster import Cluster

        block_bytes = 100 * 8
        manager = PersistenceManager(tmp_path / "peek", 2, buffer_bytes=3 * block_bytes)
        dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), rng=make_rng(1))
        manager.attach(dfs)
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
            "restore must reinstate RNG states, the window and delta chains "
            "so adaptation resumes exactly where the checkpoint left it"
        )
        reopened.close()

    def test_delta_chains_span_the_restart(self, tmp_path, tpch_tables):
        session = load_session(mmap_config(tmp_path), tpch_tables)
        session.run_workload(adaptive_workload(queries_per_template=2))
        lineitem = session.table("lineitem")
        epoch = lineitem.epoch
        assert epoch > 0, "the workload must have adapted lineitem"
        expected = {
            start: lineitem.delta_between(start, epoch)
            for start in range(max(0, epoch - 3), epoch + 1)
        }
        session.checkpoint()
        session.close()

        reopened = Session.open(tmp_path / "root")
        restored = reopened.table("lineitem")
        for start, delta in expected.items():
            assert restored.delta_between(start, epoch) == delta
        reopened.close()

    def test_open_requires_a_catalog_and_checkpoint(self, tmp_path):
        with pytest.raises(StorageError, match="no catalog"):
            Session.open(tmp_path / "nowhere")

    def test_open_refuses_another_format_version(self, tmp_path, tpch_tables):
        """A root checkpointed in another format fails typed, naming both
        versions, and is left exactly as it was (there is no migration)."""
        session = load_session(mmap_config(tmp_path), tpch_tables, ("part",))
        session.checkpoint()
        root = session.storage_root
        session.close()
        stored = FORMAT_VERSION - 1
        with sqlite3.connect(root / "catalog.sqlite") as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'format_version'", (str(stored),)
            )
        conn.close()

        def snapshot():
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        with pytest.raises(
            StorageError, match=f"version {stored}.*version {FORMAT_VERSION}"
        ):
            Session.open(root)
        assert snapshot() == before

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

    def test_sanitizer_verifies_descriptors_across_restart(
        self, tmp_path, tpch_tables
    ):
        set_sanitize(True)
        try:
            session = load_session(mmap_config(tmp_path), tpch_tables)
            session.run_workload(adaptive_workload(queries_per_template=2)[:4])
            session.checkpoint()
            session.close()
            reopened = Session.open(tmp_path / "root")
            # Post-restore bumps verify against the restored snapshot baseline.
            reopened.run_workload(adaptive_workload(queries_per_template=2)[4:])
            reopened.close()
        finally:
            set_sanitize(None)


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

    def test_crash_between_spill_and_commit_rolls_back(
        self, tmp_path, tpch_tables, monkeypatch
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
        # after phase 1 (spill files written) but before the catalog commit.
        w2_fingerprints = [r.fingerprint() for r in session.run_workload(w2)]
        def die(manager, session_arg, tables):
            raise RuntimeError("simulated crash before the catalog commit")

        monkeypatch.setattr(PersistenceManager, "_commit_checkpoint", die)
        with pytest.raises(RuntimeError, match="simulated crash"):
            session.checkpoint()
        monkeypatch.undo()
        stranded = self.on_disk_versions(root)
        session.close()

        reopened = Session.open(root)
        # The previous checkpoint's state is back, bit for bit.
        assert table_epochs(reopened) == epochs
        assert_same_block_state(all_block_columns(reopened), block_state)
        # Stranded post-checkpoint spill files were garbage-collected: only
        # catalog-referenced versions remain on disk.
        remaining = self.on_disk_versions(root)
        durable = reopened.persist.catalog.durable_versions()
        for entry in remaining:
            block_id, version = entry.removeprefix("block-").split("-v")
            assert durable.get(int(block_id)) == int(version), entry
        assert remaining < stranded, "recovery must remove stranded versions"
        # Replaying the lost work reproduces the exact original outcomes.
        assert [
            r.fingerprint() for r in reopened.run_workload(w2)
        ] == w2_fingerprints
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

    def test_env_defaults_resolve_only_unset_fields(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PERSISTENCE", "mmap")
        monkeypatch.setenv("REPRO_BUFFER_BYTES", "123456")
        config = AdaptDBConfig()
        assert config.persistence == "mmap"
        assert config.buffer_bytes == 123456
        explicit = AdaptDBConfig(persistence="memory")
        assert explicit.persistence == "memory"
        assert explicit.buffer_bytes is None
        monkeypatch.setenv("REPRO_BUFFER_BYTES", "0")
        assert AdaptDBConfig().buffer_bytes is None, "0 means unbounded"

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_env_buffer_bytes_must_be_a_non_negative_integer(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_PERSISTENCE", "mmap")
        monkeypatch.setenv("REPRO_BUFFER_BYTES", value)
        with pytest.raises(PlanningError, match=f"REPRO_BUFFER_BYTES.*{value}"):
            AdaptDBConfig()

    def test_env_storage_root_hosts_session_dirs(
        self, monkeypatch, tmp_path, tpch_tables
    ):
        monkeypatch.setenv("REPRO_PERSISTENCE", "mmap")
        monkeypatch.setenv("REPRO_STORAGE_ROOT", str(tmp_path / "parent"))
        session = load_session(AdaptDBConfig(rows_per_block=512, seed=3),
                               tpch_tables, ("part",))
        try:
            assert session.persist is not None
            root = session.storage_root
            assert root is not None
            assert str(tmp_path / "parent") in str(root)
            # A generated root never leaks into the (shareable) config: a
            # second session built from the same config gets its own root.
            assert session.config.storage_root is None
        finally:
            session.close()

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
