"""Durable storage tier: spill files, block buffer, catalog, checkpoints.

See :mod:`repro.storage.persist.manager` for the lifecycle overview.
"""

from .buffer import BlockBuffer
from .catalog import CATALOG_FILENAME, PersistentCatalog
from .manager import PersistenceManager
from .serialize import FORMAT_VERSION
from .store import PersistentBlockStore

__all__ = [
    "BlockBuffer",
    "CATALOG_FILENAME",
    "FORMAT_VERSION",
    "PersistenceManager",
    "PersistentBlockStore",
    "PersistentCatalog",
]
