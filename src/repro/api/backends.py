"""The in-process execution backend of the staged query lifecycle.

A backend consumes a :class:`~repro.api.plans.PhysicalPlan` and produces a
:class:`~repro.exec.result.QueryResult`.  There are two, each a thin
selection over the session's one schedule interpreter
(:class:`~repro.exec.engine.Executor`), and a session picks one by name
(``Session.backends``, ``Session.use_backend``):

* :class:`TaskBackend` (``"tasks"``) — the interpreter with its inline
  runner;
* :class:`~repro.parallel.backend.ParallelBackend` (``"parallel"``) — the
  interpreter with a worker-pool runner, plus measured wall-clock fields.

Both produce identical answers and fingerprints for the same physical plan.
A runtime model is not a backend: serial, makespan and simulated time are
all reads of the result either backend returns (see
:class:`~repro.exec.result.QueryResult` and :func:`repro.exec.simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exec.engine import Executor
from ..exec.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .plans import PhysicalPlan


@dataclass
class TaskBackend:
    """The schedule interpreter, run in-process (backend ``"tasks"``)."""

    executor: Executor

    def execute(self, physical: "PhysicalPlan") -> QueryResult:
        """Replay the physical plan's compiled schedule through the engine."""
        return self.executor.execute_schedule(
            physical.logical, physical.compiled, physical.schedule
        )
