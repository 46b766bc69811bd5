"""True multi-core execution: worker pool and shared-memory transport.

The ``execution_backend="parallel"`` backend: the session's schedule
interpreter runs compiled task schedules on a persistent process pool, with
block columns shipped through shared-memory segments, producing results and
fingerprints bit-identical to the in-process runner plus measured
``wall_seconds`` / ``machine_wall_seconds``.
"""

from .backend import ParallelBackend
from .pool import WorkerPool

__all__ = [
    "ParallelBackend",
    "WorkerPool",
]
