"""``repro.sim`` — discrete-event cluster simulation.

The third execution model of the reproduction.  Where the serial model sums
block accesses and the makespan model takes the most-loaded machine, this
package *plays schedules out* on virtual machines:

* ``repro.sim.simulator`` — the deterministic discrete-event core:
  per-machine FIFO task queues, shuffle stage barriers, and a bounded
  repartitioning-bandwidth resource (:class:`ClusterSimulator`);
* ``repro.sim.backend``   — :class:`SimBackend`, the
  ``runtime_model="simulated"`` execution backend selectable through
  :class:`repro.api.Session`.
"""

from .backend import SimBackend
from .simulator import ClusterSimulator, JobStats, SimReport, task_dependencies

__all__ = [
    "ClusterSimulator",
    "JobStats",
    "SimBackend",
    "SimReport",
    "task_dependencies",
]
