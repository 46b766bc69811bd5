"""Distributed storage engine: blocks, the simulated DFS, tables and catalog.

The durable tier (spill store, block buffer and the checkpoint file it
commits by a rename) lives in :mod:`repro.storage.persist`.
"""

from .block import Block, compute_ranges, concatenate_columns
from .catalog import Catalog
from .dfs import DEFAULT_REPLICATION, DistributedFileSystem, ReadStats
from .sampling import DEFAULT_SAMPLE_SIZE, sample_columns
from .table import ColumnTable, RepartitionStats, StoredTable
from .persist import BlockBuffer, PersistenceManager, PersistentBlockStore

__all__ = [
    "Block",
    "BlockBuffer",
    "Catalog",
    "ColumnTable",
    "DEFAULT_REPLICATION",
    "DEFAULT_SAMPLE_SIZE",
    "DistributedFileSystem",
    "PersistenceManager",
    "PersistentBlockStore",
    "ReadStats",
    "RepartitionStats",
    "StoredTable",
    "compute_ranges",
    "concatenate_columns",
    "sample_columns",
]
