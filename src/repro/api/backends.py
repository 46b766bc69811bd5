"""Pluggable execution backends for the staged query lifecycle.

A backend consumes a :class:`~repro.api.plans.PhysicalPlan` and produces a
:class:`~repro.exec.result.QueryResult`.  Every backend is a thin selection
over the session's one schedule interpreter
(:class:`~repro.exec.engine.Executor`):

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
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..exec.engine import Executor
from ..exec.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .plans import PhysicalPlan


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a physical plan into a query result."""

    name: str

    def execute(self, physical: "PhysicalPlan") -> QueryResult:
        """Run ``physical`` and return the accounted result."""
        ...  # pragma: no cover - protocol definition


@dataclass
class TaskBackend:
    """The schedule interpreter, run in-process, behind the backend protocol."""

    executor: Executor
    name: str = "tasks"

    def execute(self, physical: "PhysicalPlan") -> QueryResult:
        """Replay the physical plan's compiled schedule through the engine."""
        return self.executor.execute_schedule(
            physical.logical, physical.compiled, physical.schedule
        )
