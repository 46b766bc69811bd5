"""Plan compilation and locality-aware task placement.

Compilation turns a :class:`QueryPlan` into per-machine work:

* pure scans and shuffle-join sides are bucketed by block replica location
  (every bucket reads only blocks with a local replica on its home machine)
  and each bucket becomes one task,
* every hyper-join group (one in-memory hash table plus the probe blocks
  overlapping it) becomes one task,
* adaptation work (Type 2 blocks) is spread evenly as repartition tasks,
* each shuffle join adds one reduce task per shuffle partition in a second
  stage, carrying the run write/re-read share of the paper's ``CSJ`` cost —
  sized from the *actual* per-partition row counts (the filtered join keys
  are hash-partitioned once at compile time), so a skewed key distribution
  produces skewed reduce tasks instead of an even split.

The scheduler then places tasks greedily, longest task first, on the machine
that is least loaded among those holding replicas of the task's blocks —
falling back to the globally least-loaded machine when locality would cost
more than a remote read saves.  Placement is fully deterministic: ties break
on machine id and task id, so a fixed plan always yields a fixed schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..core.optimizer import JoinDecision, QueryPlan
from ..core.planner import JoinMethod
from ..join.hyperjoin import HyperJoinPlan
from ..join.kernels import gather_filtered_keys, hash_partition
from ..storage.catalog import Catalog
from ..storage.dfs import DistributedFileSystem
from .tasks import Task, TaskKind, TaskSchedule


def replica_hints(dfs: DistributedFileSystem, block_ids: list[int]) -> dict[int, int]:
    """Count, per machine, how many of ``block_ids`` have a replica there."""
    hints: dict[int, int] = {}
    for block_id in block_ids:
        for machine_id in dfs.replicas_of(block_id):
            hints[machine_id] = hints.get(machine_id, 0) + 1
    return hints


def bucket_blocks_by_replica(
    dfs: DistributedFileSystem, block_ids: list[int], num_machines: int
) -> dict[int, list[int]]:
    """Split blocks into per-machine buckets such that every bucket is local.

    Each block goes to the machine that holds one of its replicas and
    currently has the smallest bucket, keeping bucket sizes balanced while
    guaranteeing that a bucket executed on its home machine reads only local
    replicas.
    """
    buckets: dict[int, list[int]] = {m: [] for m in range(num_machines)}
    for block_id in block_ids:
        replicas = [m for m in sorted(dfs.replicas_of(block_id)) if m < num_machines]
        if not replicas:
            replicas = [block_id % num_machines]
        target = min(replicas, key=lambda m: (len(buckets[m]), m))
        buckets[target].append(block_id)
    return {machine: ids for machine, ids in buckets.items() if ids}


@dataclass
class CompiledPlan:
    """The task list of a query plan.

    Attributes:
        tasks: Every task the plan compiled into.
    """

    tasks: list[Task]


def compile_plan(plan: QueryPlan, catalog: Catalog, cluster: Cluster) -> CompiledPlan:
    """Compile ``plan`` into tasks whose costs sum to the plan's serial cost."""
    cost_model = cluster.cost_model
    num_machines = cluster.num_machines
    tasks: list[Task] = []

    def new_task(**kwargs) -> Task:
        task = Task(task_id=len(tasks), **kwargs)
        tasks.append(task)
        return task

    # 1. Adaptation work (Type 2 blocks), spread evenly over the cluster.
    repartitioned = plan.adaptation.blocks_repartitioned
    if repartitioned:
        share, remainder = divmod(repartitioned, num_machines)
        for index in range(min(num_machines, repartitioned)):
            blocks = share + (1 if index < remainder else 0)
            new_task(
                kind=TaskKind.REPARTITION,
                cost_units=cost_model.repartition_cost(blocks),
            )

    # 2. Pure scans: one task per replica bucket, batched block reads.
    for table_name in plan.scan_tables:
        dfs = catalog.get(table_name).dfs
        block_ids = plan.scan_blocks.get(table_name, [])
        for bucket in bucket_blocks_by_replica(dfs, block_ids, num_machines).values():
            new_task(
                kind=TaskKind.SCAN,
                cost_units=cost_model.scan_cost(len(bucket)),
                table=table_name,
                block_ids=tuple(bucket),
                replica_hints=replica_hints(dfs, bucket),
            )

    # 3. Joins.
    for join_index, decision in enumerate(plan.join_decisions):
        dfs = catalog.get(decision.build_table).dfs
        if decision.method is JoinMethod.SHUFFLE:
            _compile_shuffle(new_task, dfs, plan, decision, join_index, cluster)
        else:
            _compile_hyper(new_task, dfs, decision.hyper_plan, join_index, cluster)

    return CompiledPlan(tasks=tasks)


def _compile_shuffle(
    new_task, dfs: DistributedFileSystem, plan: QueryPlan, decision: JoinDecision,
    join_index: int, cluster: Cluster,
) -> None:
    """Map tasks read and partition each side; reduce tasks join partitions.

    Map tasks pay one access per block; the remaining ``CSJ - 1`` accesses
    per block (writing the partitioned runs and re-reading them) are carried
    by the reduce stage, so the task costs sum to equation (1)'s
    ``CSJ * (blocks(R) + blocks(S))``.

    Reduce tasks are **skew-sized**: the filtered join keys of both sides
    are hash-partitioned once here and each partition's reduce task carries
    the run cost in proportion to the rows it will actually receive, instead
    of an even ``1/num_machines`` share.  This pre-reads the key and
    predicate columns of every relevant block at compile time (via
    ``peek_block``, so no I/O is *accounted* — it mirrors what the map tasks
    will read anyway), which the session's plan cache amortises across
    repeated templates.  The per-join total is unchanged; only its split
    across reduce tasks (and therefore the makespan under skew) moves.  When
    no row survives the predicates the even split is kept so empty shuffles
    still charge equation (1).
    """
    cost_model = cluster.cost_model
    num_machines = cluster.num_machines
    side_blocks: dict[str, int] = {}
    partition_rows = np.zeros(num_machines, dtype=np.int64)
    for side, table, block_ids in (
        ("build", decision.build_table, decision.build_blocks),
        ("probe", decision.probe_table, decision.probe_blocks),
    ):
        peeked = [dfs.peek_block(b) for b in block_ids]
        non_empty_pairs = [
            (block_id, block)
            for block_id, block in zip(block_ids, peeked)
            if block.num_rows > 0
        ]
        non_empty = [block_id for block_id, _block in non_empty_pairs]
        side_blocks[side] = len(non_empty)
        for bucket in bucket_blocks_by_replica(dfs, non_empty, num_machines).values():
            new_task(
                kind=TaskKind.SHUFFLE_MAP,
                cost_units=float(len(bucket)),
                table=table,
                block_ids=tuple(bucket),
                join_index=join_index,
                side=side,
                replica_hints=replica_hints(dfs, bucket),
            )
        keys = gather_filtered_keys(
            (block for _block_id, block in non_empty_pairs),
            decision.clause.column_for(table),
            plan.query.predicates_on(table),
        )
        if len(keys):
            partition_rows += np.bincount(
                hash_partition(keys, num_machines), minlength=num_machines
            )

    total_blocks = side_blocks["build"] + side_blocks["probe"]
    if total_blocks == 0:
        return
    run_total = (cost_model.shuffle_factor - 1.0) * total_blocks
    total_rows = int(partition_rows.sum())
    for partition in range(num_machines):
        if total_rows > 0:
            run_cost = run_total * (int(partition_rows[partition]) / total_rows)
        else:
            run_cost = run_total / num_machines
        new_task(
            kind=TaskKind.SHUFFLE_REDUCE,
            cost_units=run_cost,
            join_index=join_index,
            partition_index=partition,
            stage=1,
            input_rows=int(partition_rows[partition]),
        )


def _compile_hyper(
    new_task, dfs: DistributedFileSystem, hyper_plan: HyperJoinPlan, join_index: int,
    cluster: Cluster,
) -> None:
    """One task per group: build its hash table, probe every overlapping block."""
    cost_model = cluster.cost_model
    for group_index, group in enumerate(hyper_plan.grouping.groups):
        if not group:
            continue
        build_ids = [hyper_plan.build_block_ids[index] for index in group]
        group_union = hyper_plan.overlap[group].any(axis=0)
        probe_ids = [
            hyper_plan.probe_block_ids[int(index)] for index in np.flatnonzero(group_union)
        ]
        new_task(
            kind=TaskKind.HYPER_GROUP,
            cost_units=cost_model.hyper_join_cost(len(build_ids), len(probe_ids)),
            block_ids=tuple(build_ids),
            probe_block_ids=tuple(probe_ids),
            join_index=join_index,
            group_index=group_index,
            replica_hints=replica_hints(dfs, build_ids + probe_ids),
        )


@dataclass
class Scheduler:
    """Greedy locality-aware list scheduler (longest processing time first)."""

    num_machines: int

    def schedule(self, tasks: list[Task]) -> TaskSchedule:
        """Place ``tasks`` on machines, balancing load and preferring locality."""
        loads = [0.0] * self.num_machines
        assignments: dict[int, list[Task]] = {m: [] for m in range(self.num_machines)}
        ordered = sorted(tasks, key=lambda task: (-task.cost_units, task.task_id))
        for task in ordered:
            machine_id = self._place(task, loads)
            loads[machine_id] += task.cost_units
            assignments[machine_id].append(task)
        return TaskSchedule(num_machines=self.num_machines, assignments=assignments)

    def _place(self, task: Task, loads: list[float]) -> int:
        """Least-loaded replica holder, unless locality costs more than it saves."""
        machines = range(self.num_machines)
        best_any = min(machines, key=lambda m: (loads[m], m))
        hints = {m: c for m, c in task.replica_hints.items() if m < self.num_machines}
        if not hints:
            return best_any
        most_local = max(hints.values())
        preferred = [m for m, count in sorted(hints.items()) if count == most_local]
        best_preferred = min(preferred, key=lambda m: (loads[m], m))
        # A local placement is worth at most the task's own cost in queueing
        # delay; beyond that the remote read on an idle machine is cheaper.
        if loads[best_preferred] <= loads[best_any] + task.cost_units:
            return best_preferred
        return best_any
