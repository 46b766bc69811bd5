"""True multi-core execution: worker pool and shared-memory transport.

The ``execution_backend="parallel"`` backend: the session's schedule
interpreter runs compiled task schedules on the session's own process and a
persistent pool of helper processes — in each stage the parent runs the
machine whose tasks read the most, the helpers the others — with block
columns shipped to the helpers through shared-memory segments, producing
results and fingerprints bit-identical to the in-process runner plus
measured ``wall_seconds`` / ``machine_wall_seconds``.
"""

from .backend import ParallelBackend
from .pool import WorkerDied, WorkerPool

__all__ = [
    "ParallelBackend",
    "WorkerDied",
    "WorkerPool",
]
