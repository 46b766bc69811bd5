"""Plan objects of the staged query lifecycle.

A :class:`~repro.api.session.Session` takes a :class:`~repro.common.query.Query`
through two explicit stages:

* :class:`LogicalPlan` — the optimizer's output: relevant block sets per
  scanned table and one cost-based :class:`~repro.core.optimizer.JoinDecision`
  per join clause, stamped with the query's structural signature and the
  partition-state epochs it was planned against;
* :class:`PhysicalPlan` — the logical plan lowered onto the cluster: the
  compiled task list and its deterministic locality-aware schedule.

Both stages expose ``explain()`` returning stable text: two plans for the
same query at the same partition state render identically whether they were
planned cold or served from the plan cache (query ids and wall-clock values
are deliberately excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.optimizer import QueryPlan
from ..core.planner import JoinMethod
from ..exec.scheduler import CompiledPlan
from ..exec.tasks import TaskKind, TaskSchedule, straggler_factor
from .cache import CachedPlan


def _fmt(value: float) -> str:
    """Stable, compact float formatting for explain output."""
    return f"{value:.6g}"


@dataclass
class LogicalPlan(QueryPlan):
    """An immutable planned query: join decisions plus relevant-block sets.

    Extends the executable :class:`~repro.core.optimizer.QueryPlan` (so the
    compiler and the schedule interpreter consume it directly) with the
    provenance the session's plan cache needs.

    Attributes:
        signature: Structural signature of the query
            (:func:`repro.api.cache.query_signature`).
        table_epochs: ``(table, epoch)`` pairs, snapshotted after adaptation.
        from_cache: Whether the decisions were served from the plan cache.
        planning_seconds: Wall-clock spent producing this plan (and, once
            lowered, its physical plan).
    """

    signature: tuple[object, ...] = ()
    table_epochs: tuple[tuple[str, int], ...] = ()
    from_cache: bool = False
    planning_seconds: float = 0.0
    cache_entry: CachedPlan | None = field(default=None, repr=False, compare=False)

    def explain(self) -> str:
        """Stable multi-line description of the planning decisions.

        Identical for cold and cached plans of the same query at the same
        partition state: query ids, wall-clock times and cache provenance
        are excluded.
        """
        query = self.query
        lines = ["LogicalPlan: tables=" + ",".join(query.tables)
                 + (f" template={query.template}" if query.template else "")]
        lines.append(
            "  state: " + " ".join(f"{name}@{epoch}" for name, epoch in self.table_epochs)
        )
        for table in query.tables:
            predicates = query.predicates_on(table)
            if predicates:
                lines.append(
                    f"  predicates {table}: " + "; ".join(str(p) for p in predicates)
                )
        for table in self.scan_tables:
            lines.append(f"  scan {table}: {len(self.scan_blocks.get(table, []))} blocks")
        for decision in self.join_decisions:
            clause = decision.clause
            lines.append(
                f"  join {clause}: method={decision.method.value} "
                f"case={decision.classification.case.value}"
            )
            lines.append(
                f"    build={decision.build_table} ({len(decision.build_blocks)} blocks) "
                f"probe={decision.probe_table} ({len(decision.probe_blocks)} blocks)"
            )
            lines.append(
                f"    cost: shuffle={_fmt(decision.estimated_shuffle_cost)} "
                f"hyper={_fmt(decision.estimated_hyper_cost)}"
            )
            if decision.method is JoinMethod.HYPER:
                hyper = decision.hyper_plan
                lines.append(
                    f"    hyper: groups={hyper.grouping.num_groups} "
                    f"probe_reads={hyper.estimated_probe_reads} "
                    f"C_HyJ={_fmt(hyper.probe_multiplicity)}"
                )
        adaptation = self.adaptation
        lines.append(
            f"  adaptation: blocks={adaptation.blocks_repartitioned} "
            f"rows={adaptation.rows_repartitioned} "
            f"trees_created={adaptation.trees_created} "
            f"amoeba_transforms={adaptation.amoeba_transforms}"
        )
        return "\n".join(lines)


@dataclass
class PhysicalPlan:
    """A logical plan lowered to a scheduled task list.

    Attributes:
        logical: The plan this was lowered from.
        compiled: The compiled task list.
        schedule: Deterministic placement of the tasks onto machines.
        from_cache: Whether the compiled skeleton was served from the cache.
    """

    logical: LogicalPlan
    compiled: CompiledPlan
    schedule: TaskSchedule
    from_cache: bool = False

    def explain(self) -> str:
        """Stable description of the compiled schedule (cold == cached)."""
        counts = {kind: 0 for kind in TaskKind}
        for task in self.compiled.tasks:
            counts[task.kind] += 1
        schedule = self.schedule
        lines = [
            f"PhysicalPlan: {len(self.compiled.tasks)} tasks "
            f"on {schedule.num_machines} machines",
            "  tasks: " + " ".join(
                f"{kind.value}={count}" for kind, count in counts.items() if count
            ),
            f"  serial_cost={_fmt(schedule.total_cost)} "
            f"makespan={_fmt(schedule.makespan)} "
            f"straggler={_fmt(straggler_factor(schedule.machine_loads))} "
            f"locality={_fmt(schedule.locality_fraction)}",
        ]
        return "\n".join(lines)

    def explain_full(self) -> str:
        """The logical and physical explains concatenated."""
        return self.logical.explain() + "\n" + self.explain()
