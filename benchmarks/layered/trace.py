"""Span tracing from outside the library.

The benchmark records one span at every layer boundary without editing
``src/``: :class:`Tracer` replaces the boundary functions listed in
:func:`boundary_targets` with timing wrappers, keeps the spans in memory and
restores every attribute on :meth:`Tracer.uninstall`.  A span is
``[name, parent, start, end, value]``; ``value`` is an optional count taken
from the call (rows routed, blocks fetched, ...), so ratios are measured
where the work happens.

A span's *self time* is its duration minus the duration of its direct child
spans (the program is single-threaded in the parent, so children never
overlap).  Worker processes forked while the tracer is installed inherit the
wrappers but their spans die with them; worker time is taken from
``QueryResult.machine_wall_seconds`` instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

NAME, PARENT, START, END, VALUE = range(5)

#: Layer of the benchmark's own spans (set-up, timed region, one query, ...).
BENCH_LAYER = "bench"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` is looked up and replaced."""

    owner: Any
    attr: str
    name: str
    #: ``value(args, kwargs, result)`` -> number or tuple kept on the span.
    value: Callable[[tuple, dict, Any], Any] | None = None


@dataclass
class Tracer:
    """In-memory span recorder with attribute-level install / uninstall."""

    spans: list[list] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, value: Any = None) -> Iterator[list]:
        """Record one of the benchmark's own spans around a ``with`` body."""
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, value]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, function: Callable, target: Target) -> Callable:
        spans, stack, name, value = self.spans, self._stack, target.name, target.value
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if value is not None:
                record[VALUE] = value(args, kwargs, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def install(self, targets: list[Target]) -> None:
        """Replace every target with its timing wrapper."""
        for target in targets:
            owner = target.owner
            raw = vars(owner)[target.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._saved.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def layer_of(name: str) -> str:
    """A span's layer is the part of its name before the first dot."""
    return name.split(".", 1)[0]


def boundary_targets() -> list[Target]:
    """The layer-boundary functions of ``repro``, by layer.

    Module-level functions are patched in the namespace of the module that
    *calls* them (they were imported there by name).
    """
    import repro.api.session as session_module
    import repro.join.hyperjoin as hyperjoin_module
    from repro.adaptive.amoeba import AmoebaAdaptor
    from repro.adaptive.repartitioner import AdaptiveRepartitioner
    from repro.adaptive.smooth import SmoothRepartitioner
    from repro.api import Session, TaskBackend
    from repro.core.optimizer import Optimizer
    from repro.exec.scheduler import Scheduler
    from repro.join.hyperjoin import HyperPlanCache
    from repro.parallel.backend import ParallelBackend
    from repro.parallel.pool import WorkerPool
    from repro.partitioning.tree import PartitioningTree
    from repro.storage.dfs import DistributedFileSystem
    from repro.storage.persist import PersistenceManager
    from repro.storage.persist.buffer import BlockBuffer
    from repro.storage.persist.store import PersistentBlockStore
    from repro.storage.shared_memory import SharedBlockStore
    from repro.storage.table import StoredTable
    from repro.workloads import TPCHGenerator

    def adaptation(args: tuple, kwargs: dict, report: Any) -> tuple:
        return (
            report.blocks_repartitioned,
            report.rows_repartitioned,
            report.trees_created,
            report.amoeba_transforms,
        )

    def second_len(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[1])

    return [
        Target(TPCHGenerator, "generate", "workloads.generate"),
        Target(Session, "load_table", "partitioning.load_table"),
        Target(PartitioningTree, "lookup", "partitioning.tree_lookup"),
        Target(
            PartitioningTree, "route_rows", "partitioning.route_rows",
            lambda args, kwargs, result: len(result),
        ),
        Target(AdaptiveRepartitioner, "on_query", "adaptive.on_query", adaptation),
        Target(SmoothRepartitioner, "apply", "adaptive.smooth_apply"),
        Target(AmoebaAdaptor, "adapt", "adaptive.amoeba_adapt"),
        Target(Session, "plan", "api.plan"),
        Target(Session, "lower", "api.lower"),
        Target(Session, "execute", "api.execute"),
        Target(Session, "checkpoint", "api.checkpoint"),
        Target(Session, "open", "api.open"),
        Target(Session, "close", "api.close"),
        Target(Optimizer, "plan_query", "core.plan_query"),
        Target(Optimizer, "_relevant_blocks", "core.relevant_blocks"),
        Target(HyperPlanCache, "get_or_plan", "join.hyper_plan"),
        Target(hyperjoin_module, "compute_overlap_matrix", "join.overlap_build"),
        Target(hyperjoin_module, "patch_overlap_matrix", "join.overlap_patch"),
        Target(hyperjoin_module, "group_blocks", "join.grouping"),
        Target(session_module, "compile_plan", "exec.compile"),
        Target(Scheduler, "schedule", "exec.schedule"),
        Target(TaskBackend, "execute", "exec.execute"),
        Target(ParallelBackend, "execute", "exec.execute"),
        Target(DistributedFileSystem, "get_blocks", "storage.get_blocks", second_len),
        Target(StoredTable, "move_blocks", "storage.move_blocks", second_len),
        Target(BlockBuffer, "_fault", "persist.fault"),
        Target(PersistentBlockStore, "spill", "persist.spill"),
        Target(PersistentBlockStore, "gc", "persist.gc"),
        Target(PersistenceManager, "_commit_checkpoint", "persist.commit"),
        Target(PersistenceManager, "restore", "persist.restore"),
        Target(WorkerPool, "__init__", "parallel.pool_start"),
        Target(WorkerPool, "close", "parallel.pool_close"),
        Target(SharedBlockStore, "pin_table", "parallel.pin"),
        Target(SharedBlockStore, "close", "parallel.unpin"),
        Target(WorkerPool, "submit", "parallel.submit"),
        Target(WorkerPool, "collect", "parallel.collect"),
    ]


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
@dataclass
class SpanStats:
    """Totals of the spans under one root, by span name and by layer."""

    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    values: dict[str, list] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    spans: int = 0


def analyse(spans: list[list], root: int) -> SpanStats:
    """Aggregate every span at or below ``spans[root]``."""
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    inside[root] = True
    stats = SpanStats()
    # A child is always recorded after its parent, so one forward pass
    # both marks the subtree and sums each span's direct children.
    for index in range(root, len(spans)):
        record = spans[index]
        parent = record[PARENT]
        if index != root:
            if parent < root or not inside[parent]:
                continue
            inside[index] = True
            child_time[parent] += record[END] - record[START]
    for index in range(root, len(spans)):
        if not inside[index]:
            continue
        record = spans[index]
        name = record[NAME]
        duration = record[END] - record[START]
        own = duration - child_time[index]
        stats.spans += 1
        stats.total_s[name] = stats.total_s.get(name, 0.0) + duration
        stats.self_s[name] = stats.self_s.get(name, 0.0) + own
        stats.calls[name] = stats.calls.get(name, 0) + 1
        if record[VALUE] is not None:
            stats.values.setdefault(name, []).append(record[VALUE])
        layer = layer_of(name)
        stats.layer_self_s[layer] = stats.layer_self_s.get(layer, 0.0) + own
    return stats


def export(spans: list[list]) -> list[dict]:
    """Spans as dicts, each tagged with the index of the operation it belongs to."""
    query_of: list[Any] = []
    out = []
    for record in spans:
        parent = record[PARENT]
        query = query_of[parent] if parent >= 0 else None
        if layer_of(record[NAME]) == BENCH_LAYER and record[VALUE] is not None:
            query = record[VALUE]
        query_of.append(query)
        out.append({
            "name": record[NAME],
            "layer": layer_of(record[NAME]),
            "start": record[START],
            "end": record[END],
            "parent": parent,
            "query": query,
        })
    return out
