"""The four workloads, their inputs, and one pass of a workload.

A *pass* is one complete unit of work: generate the inputs from the seed,
build a fresh session and load it (the set-up), then drive the workload's
operations through ``repro.api.Session`` as one closed-loop client (the
timed region).  A run repeats passes and reports medians, so the set-up is
measured as often as the timed region.  Every pass of one seed does exactly
the same work: adaptation is ordered by query and the session is
single-threaded, so one caller that waits for each reply is the real
traffic.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import Session, query_signature
from repro.common.predicates import rows_matching
from repro.common.query import Query
from repro.common.rng import make_rng
from repro.core.config import AdaptDBConfig
from repro.exec.result import QueryResult
from repro.storage.table import ColumnTable
from repro.testing import reference_join_count
from repro.workloads import (
    EVALUATED_TEMPLATES,
    TPCHGenerator,
    switching_workload,
    tables_for_templates,
)

from trace import END, START, Tracer

TEMPLATES = list(EVALUATED_TEMPLATES)


@dataclass(frozen=True)
class Workload:
    """Sizes and configuration of one workload; BENCHMARK.json says why it exists."""

    name: str
    scale: float
    queries_per_template: int
    rows_per_block: int = 512
    #: ``AdaptDBConfig`` fields beyond rows_per_block / buffer_blocks / seed.
    config: dict[str, Any] = field(default_factory=dict)
    #: steady: adaptive queries per template run in set-up to converge the
    #: layout; the timed region then cycles a fixed pool with adapt=False.
    #: The pool (8 templates x queries_per_template) must fit the session's
    #: plan cache (64 entries by default), or every query plans afresh.
    converge_per_template: int = 0
    cycles: int = 1
    #: spill: block-buffer budget as a share of the user bytes.
    buffer_share: float | None = None

    @property
    def reference_is_self(self) -> bool:
        """Whether a pass of this workload is already a memory-tier ``tasks`` run."""
        return not self.config


WORKLOADS = [
    Workload(name="switching", scale=1.5, queries_per_template=20),
    Workload(
        name="steady", scale=1.5, queries_per_template=8, converge_per_template=3, cycles=3
    ),
    Workload(
        name="spill",
        scale=0.25,
        queries_per_template=6,
        rows_per_block=1024,
        config={"persistence": "mmap"},
        buffer_share=0.30,
    ),
    Workload(
        name="parallel",
        scale=1.0,
        queries_per_template=8,
        rows_per_block=1024,
        config={"execution_backend": "parallel", "num_workers": 2},
    ),
]

#: ``--smoke`` inputs: just enough to exercise every code path.
SMOKE_SCALE = 0.1
SMOKE_QUERIES_PER_TEMPLATE = 1

#: The phases of a pass, in order.  ``setup`` is timed as ``setup_s`` and
#: ``timed`` as everything else end to end; ``prime`` sits between them and
#: is measured per layer only (see README: file writes on this sandbox cost
#: 0.3 to 5.9 ms each depending on what the filesystem freed recently).
PHASES = ("setup", "prime", "timed")


@dataclass(frozen=True)
class Op:
    """One operation: a query, a checkpoint, close + reopen, or applying
    the buffer budget (``shrink``)."""

    kind: str
    query: Query | None = None
    adapt: bool = True


@dataclass
class Inputs:
    """Everything a pass consumes, made from the seed alone."""

    tables: dict[str, ColumnTable]
    user_bytes: int
    ops: dict[str, list[Op]]


def _stream(per_template: int, rng: Any, adapt: bool) -> list[Op]:
    return [Op("query", query, adapt) for query in switching_workload(TEMPLATES, per_template, rng)]


def make_inputs(workload: Workload, seed: int, smoke: bool) -> Inputs:
    """Generate tables and the operation streams of ``workload`` from ``seed``."""
    scale = SMOKE_SCALE if smoke else workload.scale
    per_template = SMOKE_QUERIES_PER_TEMPLATE if smoke else workload.queries_per_template
    tables = TPCHGenerator(scale=scale, seed=seed).generate(tables_for_templates(TEMPLATES))
    user_bytes = sum(
        column.nbytes for table in tables.values() for column in table.columns.values()
    )
    rng = make_rng(seed)
    ops: dict[str, list[Op]] = {phase: [] for phase in PHASES}
    if workload.converge_per_template:
        converge = 1 if smoke else workload.converge_per_template
        pool = _stream(per_template, rng, adapt=False)
        # Converge the layout, then one warm pass that fills the plan cache.
        ops["setup"] = _stream(converge, rng, adapt=True) + pool
        ops["timed"] = pool * workload.cycles
    elif workload.buffer_share:
        # The write stream: one adaptive query per template, each followed
        # by a checkpoint, under the buffer budget.
        ops["prime"] = [Op("shrink")]
        for op in _stream(1, rng, adapt=True):
            ops["prime"] += [op, Op("checkpoint")]
        ops["timed"] = [Op("reopen"), *_stream(per_template, rng, adapt=False), Op("checkpoint")]
    else:
        ops["timed"] = _stream(per_template, rng, adapt=True)
    return Inputs(tables=tables, user_bytes=user_bytes, ops=ops)


def session_config(
    workload: Workload, seed: int, storage_root: Path, reference: bool
) -> AdaptDBConfig:
    """The session configuration of a pass (``reference``: memory tier, tasks)."""
    fields: dict[str, Any] = {"persistence": "memory", "execution_backend": "tasks"}
    if not reference:
        fields.update(workload.config)
        if fields["persistence"] == "mmap":
            # The buffer starts unbounded so that loading writes no file;
            # the ``shrink`` operation applies the budget afterwards.
            fields["storage_root"] = str(storage_root)
    return AdaptDBConfig(
        rows_per_block=workload.rows_per_block, buffer_blocks=8, seed=seed, **fields
    )


# ---------------------------------------------------------------------- #
# Counters read off the session around the measured region
# ---------------------------------------------------------------------- #
def session_counters(session: Session) -> dict[str, int]:
    """Monotone counters of the current session objects."""
    counters = {
        "epochs": sum(table.epoch for table in session.catalog.tables()),
        **{f"cache.{key}": int(value) for key, value in session.cache_stats().items()
           if key.endswith(("lookups", "hits", "misses", "revalidations", "upgrades"))},
    }
    if session.persist is not None:
        buffer, store = session.persist.buffer, session.persist.store
        counters.update({
            "buffer.hits": buffer.hits,
            "buffer.faults": buffer.faults,
            "buffer.evictions": buffer.evictions,
            "store.spills": store.spills,
            "store.spilled_bytes": store.spilled_bytes,
        })
    return counters


def disk_usage(root: Path) -> tuple[int, int]:
    """``(bytes, files)`` under a storage root."""
    sizes = [path.stat().st_size for path in root.rglob("*") if path.is_file()]
    return sum(sizes), len(sizes)


# ---------------------------------------------------------------------- #
# One pass
# ---------------------------------------------------------------------- #
class OperationFailed(Exception):
    """An operation raised; the pass stops and counts it as failed."""


@dataclass
class PassResult:
    """What one pass measured and answered."""

    tracer: Tracer
    #: Span index of ``bench.setup`` / ``bench.measured`` / ``bench.timed``.
    roots: dict[str, int] = field(default_factory=dict)
    #: One entry per executed operation, over all phases.
    ops: list[Op] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    op_spans: list[int] = field(default_factory=list)
    results: list[QueryResult | None] = field(default_factory=list)
    read_stats: list[Any] = field(default_factory=list)
    checkpoint_stats: list[dict[str, int]] = field(default_factory=list)
    #: Counter increments over the measured region (prime + timed).
    counters: dict[str, int] = field(default_factory=dict)
    blocks_loaded: int = 0
    pinned_bytes: int = 0
    disk_bytes: int = 0
    disk_files: int = 0
    user_bytes: int = 0
    cpu_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    def seconds(self, span: int) -> float:
        record = self.tracer.spans[span]
        return record[END] - record[START]

    @property
    def setup_s(self) -> float:
        return self.seconds(self.roots["setup"])

    @property
    def wall_s(self) -> float:
        return self.seconds(self.roots["timed"])

    def op_seconds(self, kind: str, phases: tuple[str, ...] = ("timed",)) -> list[float]:
        return [
            self.seconds(span)
            for op, phase, span in zip(self.ops, self.phases, self.op_spans)
            if op.kind == kind and phase in phases
        ]

    def query_results(self, phases: tuple[str, ...] = PHASES) -> list[QueryResult]:
        return [
            result
            for result, phase in zip(self.results, self.phases)
            if result is not None and phase in phases
        ]

    @property
    def digest(self) -> str:
        """SHA-256 over the fingerprints of every query of the pass, in order."""
        fingerprints = [result.fingerprint() for result in self.query_results()]
        return hashlib.sha256(repr(fingerprints).encode()).hexdigest()

    @property
    def exact(self) -> tuple:
        """Everything that must repeat exactly between passes of one seed."""
        results = self.query_results()
        return (
            self.digest,
            sum(result.cost_units for result in results),
            sum(result.makespan_cost_units for result in results),
            tuple(sorted(self.counters.items())),
            tuple(tuple(sorted(stats.items())) for stats in self.checkpoint_stats),
            self.blocks_loaded,
            self.disk_files,
        )


@dataclass
class _Driver:
    """The closed-loop client: one operation at a time, each in its own span."""

    session: Session
    storage_root: Path
    budget: int | None
    reference: bool
    outcome: PassResult
    _before: dict[str, int] = field(default_factory=dict)

    def start_counting(self) -> None:
        self._before = session_counters(self.session)

    def stop_counting(self) -> None:
        counters = self.outcome.counters
        for key, value in session_counters(self.session).items():
            counters[key] = counters.get(key, 0) + value - self._before.get(key, 0)

    def run(self, ops: list[Op], phase: str) -> None:
        outcome, tracer = self.outcome, self.outcome.tracer
        for op in ops:
            if self.reference and op.kind != "query":
                continue  # a memory session has no buffer, checkpoint or reopen
            index = len(outcome.ops)
            outcome.ops.append(op)
            outcome.phases.append(phase)
            outcome.op_spans.append(len(tracer.spans))
            try:
                with tracer.span("bench." + op.kind, index):
                    result = self._perform(op)
            except Exception:
                outcome.results.append(None)
                outcome.failures.append(
                    f"operation {index} ({phase} {op.kind}):\n{traceback.format_exc()}"
                )
                raise OperationFailed from None
            outcome.results.append(result)
            if result is not None:
                # execute() installs a fresh ReadStats per query, so the
                # reference stays valid after the next query runs.
                outcome.read_stats.append(self.session.dfs.read_stats)

    def _perform(self, op: Op) -> QueryResult | None:
        if op.kind == "query":
            assert op.query is not None
            return self.session.run(op.query, adapt=op.adapt)
        if op.kind == "checkpoint":
            self.outcome.checkpoint_stats.append(self.session.checkpoint())
        elif op.kind == "shrink":
            self._shrink()
        else:  # reopen: the counters restart with the new session's objects
            self.stop_counting()
            self.session.close()
            self.session = Session.open(self.storage_root)
            self._shrink()
            self.start_counting()
        return None

    def _shrink(self) -> None:
        assert self.session.persist is not None
        self.session.persist.buffer.set_budget(self.budget)


def run_pass(
    workload: Workload,
    seed: int,
    smoke: bool,
    storage_root: Path,
    tracer: Tracer,
    reference: bool = False,
) -> PassResult:
    """Set up a fresh session and drive the workload's operations through it.

    The benchmark's own spans (``bench.setup``, ``bench.measured`` around
    ``bench.prime`` and ``bench.timed``, and one ``bench.<kind>`` per
    operation) are always recorded, so traced and untraced passes are timed
    by the same code; ``tracer`` decides whether the library's boundary
    functions are wrapped as well.
    """
    outcome = PassResult(tracer=tracer)
    driver: _Driver | None = None

    def root(name: str) -> Any:
        outcome.roots[name] = len(tracer.spans)
        return tracer.span("bench." + name)

    try:
        with root("setup"):
            inputs = make_inputs(workload, seed, smoke)
            session = Session(session_config(workload, seed, storage_root, reference))
            budget = (
                int(workload.buffer_share * inputs.user_bytes) if workload.buffer_share else None
            )
            driver = _Driver(session, storage_root, budget, reference, outcome)
            for table in inputs.tables.values():
                session.load_table(table)
            driver.run(inputs.ops["setup"], "setup")
        outcome.user_bytes = inputs.user_bytes
        outcome.blocks_loaded = session.dfs.num_blocks

        driver.start_counting()
        cpu_started = time.process_time()
        with root("measured"):
            with root("prime"):
                driver.run(inputs.ops["prime"], "prime")
                if inputs.ops["prime"]:
                    # Flush what the prime wrote, so that write-back of the
                    # untimed stream does not run into the timed region.
                    os.sync()
            with root("timed"):
                driver.run(inputs.ops["timed"], "timed")
        outcome.cpu_s = time.process_time() - cpu_started
        driver.stop_counting()
        outcome.pinned_bytes = driver.session.backends["parallel"].store.pinned_bytes
        if driver.session.persist is not None:
            outcome.disk_bytes, outcome.disk_files = disk_usage(storage_root)
    except OperationFailed:
        pass
    except Exception:
        outcome.failures.append(f"pass aborted:\n{traceback.format_exc()}")
    finally:
        if driver is not None:
            driver.session.close()
        shutil.rmtree(storage_root, ignore_errors=True)
    return outcome


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def verify_answers(outcome: PassResult, tables: dict[str, ColumnTable]) -> list[str]:
    """Compare every query's answers with an independent reference.

    Each join's cardinality must equal ``reference_join_count`` on the raw
    generated tables under the query's predicates; rows matched by pure
    scans must equal a direct ``rows_matching`` count.
    """
    expected_of: dict[tuple, tuple[list[int], int]] = {}
    mismatches: list[str] = []
    for op, result in zip(outcome.ops, outcome.results):
        if op.query is None or result is None:
            continue
        query = op.query
        signature = query_signature(query)
        if signature not in expected_of:
            joins = [
                reference_join_count(
                    tables[clause.left_table],
                    tables[clause.right_table],
                    clause.left_column,
                    clause.right_column,
                    query.predicates_on(clause.left_table),
                    query.predicates_on(clause.right_table),
                )
                for clause in query.joins
            ]
            joined = {name for clause in query.joins for name in (clause.left_table, clause.right_table)}
            scanned = sum(
                int(rows_matching(tables[name].columns, query.predicates_on(name)).sum())
                for name in query.tables
                if name not in joined
            )
            expected_of[signature] = (joins, scanned)
        joins, scanned = expected_of[signature]
        answered = [stats.output_rows for stats in result.join_stats]
        if answered != joins or result.scan_output_rows != scanned:
            mismatches.append(
                f"{query.describe()}: joins {answered} != {joins} "
                f"or scans {result.scan_output_rows} != {scanned}"
            )
    return mismatches
