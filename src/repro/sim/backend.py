"""The simulated execution backend (``runtime_model="simulated"``).

:class:`SimBackend` runs a physical plan twice, in two senses:

* the session's **schedule interpreter** executes it for real (row-level
  answers, serial cost, makespan accounting) — exactly what
  :class:`~repro.api.backends.TaskBackend` does, so answers and fingerprints
  are identical across the two backends;
* the **cluster simulator** then plays the same schedule out event by event,
  honouring stage barriers (shuffle reduces wait for their producing maps)
  and the bounded repartitioning bandwidth, and stamps the result with
  simulated timing: ``sim_seconds`` (completion time), per-machine busy
  seconds, and the summed task queueing delay.

On a single query the gap between ``sim_seconds`` and ``makespan_seconds``
is exactly the barrier-induced idle time: the makespan model assumes every
machine can run its assigned load back to back, the simulator charges the
stalls where a reduce waits on maps finishing elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec.engine import Executor
from ..exec.result import QueryResult
from ..exec.tasks import TaskSchedule
from .simulator import ClusterSimulator, SimReport


@dataclass
class SimBackend:
    """Discrete-event simulated execution behind the backend protocol."""

    executor: Executor
    name: str = "simulated"

    def simulate_schedule(self, schedule: TaskSchedule) -> SimReport:
        """Play one schedule on a fresh simulator (single-query, no contention)."""
        simulator = ClusterSimulator(
            num_machines=self.executor.cluster.num_machines,
            repartition_bandwidth=self.executor.config.sim_repartition_bandwidth,
        )
        simulator.submit(schedule, arrival=0.0, label="query")
        return simulator.run()

    def execute(self, physical) -> QueryResult:
        """Execute through the task engine, then simulate the schedule's timing."""
        result = self.executor.execute_schedule(
            physical.logical, physical.compiled, physical.schedule
        )
        report = self.simulate_schedule(physical.schedule)
        result.sim_seconds = report.finished_at
        result.sim_queueing_seconds = (
            report.jobs[0].queueing_seconds if report.jobs else 0.0
        )
        result.sim_machine_busy_seconds = report.machine_busy_seconds
        return result
