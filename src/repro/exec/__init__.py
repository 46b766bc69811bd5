"""Task-based execution engine.

A :class:`QueryPlan` is *compiled* into per-machine work units (scan tasks,
shuffle map/reduce tasks, hyper-join group tasks, repartition tasks), a
locality-aware scheduler places the tasks on the cluster's machines, and one
schedule interpreter runs them — in-process or on the ``repro.parallel``
worker pool — reading every task's blocks with one batched DFS call.
Every result carries the serial cost sum (the paper's block-access model),
the per-machine loads whose maximum is the *makespan* — what a distributed
deployment would actually observe, stragglers included — and the schedule
itself, which :func:`simulate` plays out with shuffle barriers and bounded
repartitioning bandwidth.

* ``repro.exec.tasks``         — task and schedule data structures, and the
  runtime models that are functions of a schedule (``makespan``,
  :func:`simulate`)
* ``repro.exec.scheduler``     — plan compilation and locality-aware placement
* ``repro.exec.engine``        — the schedule interpreter and its inline runner
* ``repro.exec.kernels_tasks`` — per-task work descriptions, the one
  ``run_task`` both runners execute, and outcome merging
* ``repro.exec.result``        — per-query and per-join accounting
  (:class:`QueryResult`, :class:`JoinStats`)
"""

from .engine import Executor, JoinState
from .result import QueryResult
from .scheduler import CompiledPlan, Scheduler, compile_plan, replica_hints
from .tasks import Task, TaskKind, TaskSchedule, simulate, task_dependencies

__all__ = [
    "CompiledPlan",
    "Executor",
    "JoinState",
    "QueryResult",
    "Scheduler",
    "Task",
    "TaskKind",
    "TaskSchedule",
    "compile_plan",
    "replica_hints",
    "simulate",
    "task_dependencies",
]
