"""Tests for repro.cluster (machines, cluster, cost model)."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, CostModel, Machine
from repro.common.errors import StorageError


class TestMachine:
    def test_local_read_accounting(self):
        machine = Machine(machine_id=0, stored_blocks={1, 2})
        assert machine.record_read(1) is True
        assert machine.record_read(5) is False
        assert (machine.local_reads, machine.remote_reads) == (1, 1)

    def test_reset_counters(self):
        machine = Machine(0, stored_blocks={1})
        machine.record_read(1)
        machine.record_read(2)
        machine.reset_counters()
        assert (machine.local_reads, machine.remote_reads) == (0, 0)


class TestCluster:
    def test_creates_requested_machines(self):
        cluster = Cluster(num_machines=4)
        assert len(cluster.machines) == 4
        assert cluster.machine(3).machine_id == 3

    def test_zero_machines_rejected(self):
        with pytest.raises(StorageError):
            Cluster(num_machines=0)

    def test_unknown_machine_rejected(self):
        with pytest.raises(StorageError):
            Cluster(num_machines=2).machine(5)

    def test_parallelism_matches_cluster_size(self):
        cluster = Cluster(num_machines=7)
        assert cluster.cost_model.parallelism == 7

    def test_cluster_wide_locality(self):
        cluster = Cluster(num_machines=2)
        cluster.machine(0).stored_blocks.add(1)
        cluster.machine(0).record_read(1)
        cluster.machine(1).record_read(1)

        def counts():
            return [(m.local_reads, m.remote_reads) for m in cluster.machines]

        assert counts() == [(1, 0), (0, 1)]
        cluster.reset_read_counters()
        assert counts() == [(0, 0), (0, 0)]


class TestCostModel:
    model = CostModel(parallelism=10)

    def test_shuffle_join_cost_uses_csj(self):
        assert self.model.shuffle_join_cost(10, 20) == pytest.approx(3.0 * 30)

    def test_hyper_join_cost(self):
        assert self.model.hyper_join_cost(10, 25) == pytest.approx(35.0)

    def test_co_partitioned_hyper_join_cheaper_than_shuffle(self):
        """With C_HyJ = 1 a hyper-join reads each block once vs CSJ times."""
        blocks = 50
        assert self.model.hyper_join_cost(blocks, blocks) < self.model.shuffle_join_cost(blocks, blocks)

    def test_scan_cost_full_locality(self):
        assert self.model.scan_cost(100, 1.0) == pytest.approx(100.0)

    def test_scan_cost_remote_penalty(self):
        cost = self.model.scan_cost(100, 0.0)
        assert cost == pytest.approx(108.0)

    def test_scan_cost_partial_locality_bounded(self):
        """Figure 7: even at 27% locality the slowdown is below ~8%."""
        slow = self.model.scan_cost(100, 0.27)
        fast = self.model.scan_cost(100, 1.0)
        assert 1.0 < slow / fast < 1.08

    def test_repartition_cost_charges_read_and_write(self):
        assert self.model.repartition_cost(10) == pytest.approx(25.0)

    def test_to_seconds_divides_by_parallelism(self):
        assert self.model.to_seconds(100) == pytest.approx(10.0)

    def test_to_seconds_with_zero_parallelism_guard(self):
        model = CostModel(parallelism=0)
        assert model.to_seconds(10) == pytest.approx(10.0)
