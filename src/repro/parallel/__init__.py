"""True multi-core execution: worker pool, shared-memory transport, calibration.

The ``execution_backend="parallel"`` backend: the session's schedule
interpreter runs compiled task schedules on a persistent process pool, with
block columns shipped through shared-memory segments, producing results and
fingerprints bit-identical to the in-process runner plus measured
``wall_seconds``.  ``repro.parallel.calibrate`` compares the ``repro.sim``
simulator's makespan predictions against those measurements.
"""

from .backend import ParallelBackend, TaskRecord
from .calibrate import (
    CalibrationReport,
    QueryCalibration,
    calibrate,
    fig08_scan_queries,
    fig13_join_queries,
    strip_repartitions,
)
from .pool import WorkerPool

__all__ = [
    "CalibrationReport",
    "ParallelBackend",
    "QueryCalibration",
    "TaskRecord",
    "WorkerPool",
    "calibrate",
    "fig08_scan_queries",
    "fig13_join_queries",
    "strip_repartitions",
]
