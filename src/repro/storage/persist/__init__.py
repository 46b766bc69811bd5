"""Durable storage tier: spill files, block buffer, checkpoints.

See :mod:`repro.storage.persist.manager` for the lifecycle overview.
"""

from .buffer import BlockBuffer
from .manager import PersistenceManager, read_checkpoint
from .serialize import FORMAT_VERSION
from .store import PersistentBlockStore

__all__ = [
    "BlockBuffer",
    "FORMAT_VERSION",
    "PersistenceManager",
    "PersistentBlockStore",
    "read_checkpoint",
]
