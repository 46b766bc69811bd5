"""The sanctioned wall-clock source for reporting-only measurements.

The determinism checker bans direct ``time.perf_counter()`` /
``time.monotonic()`` calls inside the fingerprinted layers
(``repro.exec``, ``repro.join``, ``repro.parallel``, ...): a measured
duration must never feed a planning decision or a result fingerprint.
Durations that are *reported* — solver wall time on an
:class:`~repro.join.ilp.ILPSolution`, task timings on
``QueryResult.wall_seconds`` / ``machine_wall_seconds`` — go through
:func:`monotonic_seconds` instead.  ``repro.common`` is outside
the checker's determinism scope, so this is the one place the clock is
read and every call site names its purpose by importing from here
rather than carrying a per-line suppression.
"""

from __future__ import annotations

import time


def monotonic_seconds() -> float:
    """A monotonic timestamp in fractional seconds (reporting only).

    The value is only meaningful as a difference between two calls in the
    same process; it must never reach a fingerprint or a planning decision.
    """
    return time.perf_counter()


__all__ = ["monotonic_seconds"]
