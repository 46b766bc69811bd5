"""Tests for repro.adaptive.repartitioner (the per-query adaptation driver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.repartitioner import AdaptiveRepartitioner, RepartitionReport
from repro.cluster import Cluster
from repro.common.predicates import gt
from repro.common.query import join_query, scan_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.catalog import Catalog
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable


@pytest.fixture
def catalog():
    """A catalog with lineitem-like and orders-like tables sharing one DFS."""
    rng = np.random.default_rng(4)
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(8))
    catalog = Catalog()

    lineitem_schema = Schema.of(
        ("l_orderkey", DataType.INT), ("l_partkey", DataType.INT), ("l_shipdate", DataType.DATE)
    )
    lineitem = ColumnTable(
        "lineitem",
        lineitem_schema,
        {
            "l_orderkey": rng.integers(0, 2000, size=4096),
            "l_partkey": rng.integers(0, 400, size=4096),
            "l_shipdate": rng.integers(0, 2500, size=4096),
        },
    )
    orders_schema = Schema.of(("o_orderkey", DataType.INT), ("o_orderdate", DataType.DATE))
    orders = ColumnTable(
        "orders",
        orders_schema,
        {
            "o_orderkey": np.arange(2000, dtype=np.int64),
            "o_orderdate": rng.integers(0, 2500, size=2000),
        },
    )
    for table in (lineitem, orders):
        tree = UpfrontPartitioner(table.schema.column_names, 512).build(
            table.sample(), total_rows=table.num_rows
        )
        catalog.register(StoredTable.load(table, dfs, tree, rows_per_block=512))
    return catalog


def q12_like():
    return join_query(
        "lineitem", "orders", "l_orderkey", "o_orderkey",
        predicates={"lineitem": [gt("l_shipdate", 1000)]}, template="q12",
    )


class TestOnQuery:
    def test_join_query_triggers_smooth_repartitioning(self, catalog):
        repartitioner = AdaptiveRepartitioner(window_size=10, rows_per_block=512, rng=make_rng(1))
        lineitem = catalog.get("lineitem")
        assert lineitem.tree_for_join_attribute("l_orderkey") is None
        report = repartitioner.on_query(catalog, q12_like())
        assert report.trees_created >= 1
        assert report.blocks_repartitioned > 0
        assert lineitem.tree_for_join_attribute("l_orderkey") is not None

    def test_window_records_queries(self, catalog):
        repartitioner = AdaptiveRepartitioner(window_size=3, rng=make_rng(1))
        for _ in range(5):
            repartitioner.on_query(catalog, q12_like())
        assert len(repartitioner.window) == 3

    def test_scan_query_does_not_create_trees(self, catalog):
        repartitioner = AdaptiveRepartitioner(
            window_size=10, enable_amoeba=False, rng=make_rng(1)
        )
        report = repartitioner.on_query(catalog, scan_query("lineitem"))
        assert report.trees_created == 0
        assert report.blocks_repartitioned == 0

    def test_unknown_tables_are_ignored(self, catalog):
        repartitioner = AdaptiveRepartitioner(rng=make_rng(1))
        query = join_query("unknown_a", "unknown_b", "x", "y")
        report = repartitioner.on_query(catalog, query)
        assert report.blocks_repartitioned == 0

    def test_disabling_smooth_disables_tree_creation(self, catalog):
        repartitioner = AdaptiveRepartitioner(
            enable_smooth=False, enable_amoeba=False, rng=make_rng(1)
        )
        report = repartitioner.on_query(catalog, q12_like())
        assert report.trees_created == 0
        assert catalog.get("lineitem").tree_for_join_attribute("l_orderkey") is None

    def test_amoeba_contributes_transforms(self, catalog):
        repartitioner = AdaptiveRepartitioner(
            enable_smooth=False, enable_amoeba=True, rng=make_rng(1)
        )
        # The upfront tree's bottom level splits on l_shipdate, so a selective
        # predicate on a *different* hot attribute (l_partkey) makes re-splitting
        # clearly beneficial once enough window queries ask for it.
        selective = join_query(
            "lineitem", "orders", "l_orderkey", "o_orderkey",
            predicates={"lineitem": [gt("l_partkey", 390)]}, template="q12",
        )
        total_transforms = 0
        for _ in range(8):
            report = repartitioner.on_query(catalog, selective)
            total_transforms += report.amoeba_transforms
        assert total_transforms >= 1

    def test_rows_conserved_across_many_queries(self, catalog):
        repartitioner = AdaptiveRepartitioner(window_size=5, rows_per_block=512, rng=make_rng(1))
        before = {name: catalog.get(name).total_rows for name in catalog.table_names}
        for _ in range(15):
            repartitioner.on_query(catalog, q12_like())
        after = {name: catalog.get(name).total_rows for name in catalog.table_names}
        assert before == after

    def test_repeated_queries_converge_to_single_tree(self, catalog):
        repartitioner = AdaptiveRepartitioner(window_size=5, rows_per_block=512, rng=make_rng(1))
        for _ in range(25):
            repartitioner.on_query(catalog, q12_like())
        lineitem = catalog.get("lineitem")
        target = lineitem.tree_for_join_attribute("l_orderkey")
        assert target is not None
        assert lineitem.rows_under_tree(target) / lineitem.total_rows > 0.9

    def test_report_accumulates_across_tables(self):
        report = RepartitionReport()
        report.record(3, 300)
        report.record(2, 150)
        assert (report.blocks_repartitioned, report.rows_repartitioned) == (5, 450)
