"""The schedule interpreter: runs a compiled, scheduled plan and accounts it.

One :class:`Executor` per session interprets every schedule the same way —
begin accounting, then per barrier stage turn each placed task into one
:class:`~repro.exec.kernels_tasks.TaskWork`, hand the stage to a *runner*,
apply the outcomes in task-id order, finish accounting.  Two runners exist:
:meth:`Executor.run_inline` executes the work in the parent, reading every
task's blocks with one batched DFS call issued from its assigned machine
(so locality statistics reflect the scheduler's placement); the
``repro.parallel`` backend supplies the other, which ships the same work to
its worker pool.  The result keeps the serial block-access sum, the
schedule's per-machine loads and the schedule itself; every modelled runtime
(serial, makespan, barrier-aware simulation) is derived from those on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..core.config import AdaptDBConfig
from ..core.optimizer import JoinDecision, QueryPlan
from ..core.planner import JoinMethod
from ..storage.catalog import Catalog
from .kernels_tasks import BlockInput, TaskOutcome, TaskWork, apply_outcome, run_task
from .result import JoinStats, QueryResult
from .scheduler import CompiledPlan
from .tasks import Task, TaskKind, TaskSchedule

#: Executes one barrier stage's work and returns its outcomes (any order).
#: The work is described lazily, as the runner iterates.
StageRunner = Callable[[Iterable[TaskWork]], list[TaskOutcome]]


@dataclass
class JoinState:
    """Mutable per-join accumulator shared by that join's tasks."""

    decision: JoinDecision
    num_partitions: int
    build_partitions: list[list[np.ndarray]] = field(init=False)
    probe_partitions: list[list[np.ndarray]] = field(init=False)
    build_blocks_read: int = 0
    probe_blocks_read: int = 0
    output_rows: int = 0

    def __post_init__(self) -> None:
        self.build_partitions = [[] for _ in range(self.num_partitions)]
        self.probe_partitions = [[] for _ in range(self.num_partitions)]

    def partition_keys(self, side: str, partition: int) -> np.ndarray:
        parts = self.build_partitions if side == "build" else self.probe_partitions
        if not parts[partition]:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts[partition])


@dataclass
class Executor:
    """Interprets task schedules against the stored tables, stage by stage."""

    catalog: Catalog
    cluster: Cluster
    config: AdaptDBConfig

    def execute_schedule(
        self,
        plan: QueryPlan,
        compiled: CompiledPlan,
        schedule: TaskSchedule,
        runner: StageRunner | None = None,
    ) -> QueryResult:
        """Run an already compiled and scheduled plan through ``runner``.

        The session's plan cache replays a cached ``(compiled, schedule)``
        pair through this entry point; neither is mutated by execution, so a
        pair can be replayed any number of times at a fixed partition state.
        ``runner`` defaults to :meth:`run_inline`.
        """
        runner = runner or self.run_inline
        result, states = self._begin(plan, compiled)
        # Placements come ordered by (stage, task id); a stage's outcomes are
        # merged before the next stage's work is described, so shuffle
        # reduces see every map's partitions (the shuffle barrier).
        placements = schedule.placements()
        # The whole reference string is known before the first read: a
        # block buffer under the DFS evicts by it (consumed only if attached).
        self.catalog.get(plan.query.tables[0]).dfs.announce(
            block_id for _, task in placements for block_id in task.read_block_ids
        )
        for _, placed in groupby(placements, key=lambda pair: pair[1].stage):
            # Adaptation already rewrote the blocks: repartitions are
            # cost-only tasks with no work to run.
            stage = [
                (machine_id, task)
                for machine_id, task in placed
                if task.kind is not TaskKind.REPARTITION
            ]
            task_of = {task.task_id: task for _, task in stage}
            works = (
                self._describe(task, machine_id, plan, states)
                for machine_id, task in stage
            )
            for outcome in sorted(runner(works), key=lambda o: o.task_id):
                apply_outcome(result, states, task_of[outcome.task_id], outcome)
        return self._finish(plan, schedule, states, result)

    # ------------------------------------------------------------------ #
    # The inline runner
    # ------------------------------------------------------------------ #
    def run_inline(self, works: Iterable[TaskWork]) -> list[TaskOutcome]:
        """Execute a stage's work in this process, one task after another."""
        return [run_task(work, partial(self.fetch, work)) for work in works]

    def fetch(self, work: TaskWork, block_input: BlockInput) -> Sequence:
        """One batched DFS read of an input, issued from the task's machine."""
        dfs = self.catalog.get(block_input.table).dfs
        return dfs.get_blocks(block_input.block_ids, work.machine_id)

    # ------------------------------------------------------------------ #
    # Task -> work description
    # ------------------------------------------------------------------ #
    def _describe(
        self, task: Task, machine_id: int, plan: QueryPlan, states: list[JoinState]
    ) -> TaskWork:
        query = plan.query

        def blocks(table: str, block_ids: tuple[int, ...], key_column: str | None):
            return BlockInput(
                table, block_ids, tuple(query.predicates_on(table)), key_column
            )

        if task.kind is TaskKind.SCAN:
            inputs = (blocks(task.table, task.block_ids, None),)
            return TaskWork(task.task_id, task.kind, machine_id, inputs)
        state = states[task.join_index]
        clause = state.decision.clause
        if task.kind is TaskKind.SHUFFLE_MAP:
            inputs = (blocks(task.table, task.block_ids, clause.column_for(task.table)),)
            return TaskWork(
                task.task_id, task.kind, machine_id, inputs,
                num_partitions=state.num_partitions,
            )
        if task.kind is TaskKind.SHUFFLE_REDUCE:
            return TaskWork(
                task.task_id, task.kind, machine_id,
                build_keys=state.partition_keys("build", task.partition_index),
                probe_keys=state.partition_keys("probe", task.partition_index),
            )
        build, probe = state.decision.build_table, state.decision.probe_table
        inputs = (
            blocks(build, task.block_ids, clause.column_for(build)),
            blocks(probe, task.probe_block_ids, clause.column_for(probe)),
        )
        return TaskWork(task.task_id, task.kind, machine_id, inputs)

    # ------------------------------------------------------------------ #
    # Schedule accounting
    # ------------------------------------------------------------------ #
    def _begin(
        self, plan: QueryPlan, compiled: CompiledPlan
    ) -> tuple[QueryResult, list[JoinState]]:
        """Pre-execution accounting: the result shell and join accumulators."""
        cost_model = self.cluster.cost_model
        result = QueryResult(query=plan.query)

        # Adaptation work scheduled by the optimizer (Type 2 blocks).
        result.blocks_repartitioned = plan.adaptation.blocks_repartitioned
        result.trees_created = plan.adaptation.trees_created
        result.cost_units += cost_model.repartition_cost(plan.adaptation.blocks_repartitioned)

        result.tasks_scheduled = len(compiled.tasks)

        states = [
            JoinState(decision=decision, num_partitions=self.cluster.num_machines)
            for decision in plan.join_decisions
        ]
        return result, states

    def _finish(
        self,
        plan: QueryPlan,
        schedule: TaskSchedule,
        states: list[JoinState],
        result: QueryResult,
    ) -> QueryResult:
        """Post-execution accounting: join stats, answer, the schedule's loads."""
        cost_model = self.cluster.cost_model

        # Scan accounting: matched rows were accumulated per task; the cost
        # follows the paper's per-block model.
        for table_name in plan.scan_tables:
            result.cost_units += cost_model.scan_cost(
                len(plan.scan_blocks.get(table_name, []))
            )

        for state in states:
            stats = self._finish_join(state)
            result.join_stats.append(stats)
            result.join_methods.append(stats.method)
            result.blocks_read += stats.total_blocks_read
            result.shuffled_blocks += stats.shuffled_blocks
            result.cost_units += stats.cost_units

        # The query's answer is its final join's cardinality; pure-scan
        # matches are reported separately (and are the answer when the query
        # has no joins at all).
        if states:
            result.output_rows = states[-1].output_rows
        else:
            result.output_rows = result.scan_output_rows

        result.machine_cost_units = schedule.machine_loads
        result.schedule = schedule
        return result

    # ------------------------------------------------------------------ #
    # Join accounting
    # ------------------------------------------------------------------ #
    def _finish_join(self, state: JoinState) -> JoinStats:
        cost_model = self.cluster.cost_model
        if state.decision.method is JoinMethod.SHUFFLE:
            return JoinStats(
                method="shuffle",
                build_blocks_read=state.build_blocks_read,
                probe_blocks_read=state.probe_blocks_read,
                shuffled_blocks=state.build_blocks_read + state.probe_blocks_read,
                output_rows=state.output_rows,
                cost_units=cost_model.shuffle_join_cost(
                    state.build_blocks_read, state.probe_blocks_read
                ),
            )
        hyper_plan = state.decision.hyper_plan
        return JoinStats(
            method="hyper",
            build_blocks_read=state.build_blocks_read,
            probe_blocks_read=state.probe_blocks_read,
            shuffled_blocks=0,
            output_rows=state.output_rows,
            cost_units=cost_model.hyper_join_cost(
                state.build_blocks_read, state.probe_blocks_read
            ),
            probe_multiplicity=hyper_plan.probe_multiplicity,
            groups=hyper_plan.grouping.num_groups,
        )
