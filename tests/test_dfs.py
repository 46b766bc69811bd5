"""Tests for repro.storage.dfs (the simulated distributed file system)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.common.errors import StorageError
from repro.common.rng import make_rng
from repro.storage.block import Block
from repro.storage.dfs import DistributedFileSystem


@pytest.fixture
def dfs():
    return DistributedFileSystem(cluster=Cluster(num_machines=4), replication=2, rng=make_rng(1))


def make_columns(start: int = 0):
    return {"key": np.arange(start, start + 10, dtype=np.int64)}


class TestBlockLifecycle:
    def test_allocate_ids_are_unique(self, dfs):
        assert dfs.allocate_block_id() != dfs.allocate_block_id()

    def test_create_block_places_replicas(self, dfs):
        block = dfs.create_block("t", make_columns())
        replicas = dfs.replicas_of(block.block_id)
        assert len(replicas) == 2
        assert len(set(replicas)) == 2
        for machine_id in replicas:
            assert dfs.cluster.machine(machine_id).holds(block.block_id)

    def test_replication_capped_by_cluster_size(self):
        dfs = DistributedFileSystem(cluster=Cluster(num_machines=2), replication=5, rng=make_rng(1))
        block = dfs.create_block("t", make_columns())
        assert len(dfs.replicas_of(block.block_id)) == 2

    def test_duplicate_block_id_rejected(self, dfs):
        block = dfs.create_block("t", make_columns())
        with pytest.raises(StorageError):
            dfs.put_block(Block(block.block_id, "t", make_columns()))

    def test_delete_block_removes_replicas(self, dfs):
        block = dfs.create_block("t", make_columns())
        replicas = dfs.replicas_of(block.block_id)
        dfs.delete_block(block.block_id)
        with pytest.raises(StorageError):
            dfs.peek_block(block.block_id)
        for machine_id in replicas:
            assert not dfs.cluster.machine(machine_id).holds(block.block_id)

    def test_delete_unknown_block_raises(self, dfs):
        with pytest.raises(StorageError):
            dfs.delete_block(999)

    def test_num_blocks_and_table_listing(self, dfs):
        a = dfs.create_block("a", make_columns())
        b = dfs.create_block("b", make_columns())
        c = dfs.create_block("a", make_columns())
        assert dfs.num_blocks == 3
        assert [dfs.peek_block(x.block_id).table for x in (a, b, c)] == ["a", "b", "a"]


class TestReads:
    def test_get_block_returns_stored_data(self, dfs):
        block = dfs.create_block("t", make_columns(5))
        fetched = dfs.get_block(block.block_id, reader_machine=0)
        assert fetched.column("key").tolist() == list(range(5, 15))

    def test_peek_does_not_count_reads(self, dfs):
        block = dfs.create_block("t", make_columns())
        dfs.peek_block(block.block_id)
        assert dfs.read_stats.total_reads == 0

    def test_get_counts_reads(self, dfs):
        block = dfs.create_block("t", make_columns())
        dfs.get_block(block.block_id, reader_machine=0)
        dfs.get_block(block.block_id, reader_machine=1)
        assert dfs.read_stats.total_reads == 2

    def test_locality_accounting_respects_placement(self, dfs):
        block = dfs.create_block("t", make_columns())
        holder = dfs.replicas_of(block.block_id)[0]
        other = next(m for m in range(4) if m not in dfs.replicas_of(block.block_id))
        dfs.get_block(block.block_id, reader_machine=holder)
        dfs.get_block(block.block_id, reader_machine=other)
        assert dfs.read_stats.local_reads == 1
        assert dfs.read_stats.remote_reads == 1
        assert dfs.read_stats.locality_fraction == 0.5

    def test_unknown_block_read_raises(self, dfs):
        with pytest.raises(StorageError):
            dfs.get_block(42, reader_machine=0)

    def test_reset_read_stats(self, dfs):
        block = dfs.create_block("t", make_columns())
        dfs.get_block(block.block_id, reader_machine=0)
        dfs.reset_read_stats()
        assert dfs.read_stats.total_reads == 0
        assert all(m.local_reads == m.remote_reads == 0 for m in dfs.cluster.machines)

    def test_locality_fraction_defaults_to_one(self, dfs):
        assert dfs.read_stats.locality_fraction == 1.0
