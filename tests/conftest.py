"""Shared fixtures for the AdaptDB reproduction test suite.

All fixtures are intentionally small (a few thousand rows, a handful of
blocks) so the whole suite runs in seconds while still exercising multi-block
behaviour everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.common.rng import make_rng
from repro.common.sanitize import sanitize_enabled
from repro.common.schema import DataType, Schema
from repro.core import AdaptDBConfig
from repro.storage.table import ColumnTable
from repro.workloads.cmt import CMTGenerator
from repro.workloads.tpch import TPCHGenerator


def pytest_report_header(config: pytest.Config) -> str:
    """Record whether the runtime sanitizer is active (REPRO_SANITIZE=1).

    CI runs the suite twice — plain, and once with the sanitizer
    cross-checking mutation descriptors and cache-serve aliasing; the
    header line makes the two job logs distinguishable at a glance.
    """
    mode = "enabled" if sanitize_enabled() else "disabled"
    return f"repro sanitizer (REPRO_SANITIZE): {mode}"


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return make_rng(12345)


@pytest.fixture(scope="session")
def tpch_tables():
    """Small TPC-H tables (lineitem, orders, customer, part, supplier)."""
    return TPCHGenerator(scale=0.1, seed=7).generate()


@pytest.fixture(scope="session")
def cmt_tables():
    """Small CMT tables (trips, trip_history, trip_latest)."""
    return CMTGenerator(scale=0.05, seed=7).generate()


@pytest.fixture
def small_config():
    """An AdaptDB configuration sized for unit tests."""
    return AdaptDBConfig(rows_per_block=512, buffer_blocks=4, window_size=10, seed=3)


@pytest.fixture
def small_db(small_config, tpch_tables):
    """An AdaptDB instance with lineitem/orders/part loaded."""
    db = Session(small_config)
    for name in ("lineitem", "orders", "part"):
        db.load_table(tpch_tables[name])
    return db


@pytest.fixture
def simple_table():
    """A tiny two-column table handy for targeted storage tests."""
    schema = Schema.of(("key", DataType.INT), ("value", DataType.FLOAT))
    rng = np.random.default_rng(0)
    columns = {
        "key": np.arange(1, 1001, dtype=np.int64),
        "value": rng.uniform(0.0, 100.0, size=1000),
    }
    return ColumnTable("simple", schema, columns)
