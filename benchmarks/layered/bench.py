"""The layered benchmark: end-to-end and per-layer numbers for four workloads.

Three subcommands::

    bench.py once --workload W --seed N --seconds S --trace 0|1
        One run in this process: a discarded warm-up pass, then passes of
        the workload for S seconds, then the correctness checks.  The last
        line of standard output is one JSON object with the end-to-end
        metrics (--trace 0) or the per-layer metrics (--trace 1).  This is
        the command BENCHMARK.json names.

    bench.py run [--repeats 10] [--seed 1] [--out out/results.json]
        Runs ``once`` in fresh subprocesses, strictly one after the other,
        workloads interleaved round-robin, one seed per repeat; then one
        traced run per workload.  Prints every metric by name with its unit
        and writes the JSON.

    bench.py compare A.json B.json
        Per workload and end-to-end metric: medians, quartiles, relative
        difference against the metric's bound.

Metric names, units and bounds are read from BENCHMARK.json at the root of
the checkout; a run that computes a different set of names is an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit(f"repro was imported from {repro.__file__}, not from this checkout")

import trace as tracing  # noqa: E402  (benchmarks/layered/trace.py)
from workloads import (  # noqa: E402
    WORKLOADS,
    PassResult,
    Workload,
    make_inputs,
    run_pass,
    verify_answers,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in BENCHMARK["per_layer"]}
BY_NAME = {workload.name: workload for workload in WORKLOADS}
LAYERS = [
    "workloads", "partitioning", "adaptive", "api", "core", "join", "exec",
    "storage", "persist", "parallel",
]


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0


# ---------------------------------------------------------------------- #
# Metrics of one pass
# ---------------------------------------------------------------------- #
def end_to_end_of(outcome: PassResult) -> dict[str, float]:
    """The per-pass end-to-end numbers (``peak_rss_mib`` is per process)."""
    latencies_ms = [seconds * 1000.0 for seconds in outcome.op_seconds("query")]
    results = outcome.query_results(("timed",))
    return {
        "setup_s": outcome.setup_s,
        "wall_s": outcome.wall_s,
        "query_ms_p50": statistics.median(latencies_ms),
        "query_ms_p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
        "model_cost_units": sum(result.cost_units for result in results),
        "model_makespan_units": sum(result.makespan_cost_units for result in results),
    }


def per_layer_of(outcome: PassResult, workload: Workload) -> dict[str, float]:
    """The per-layer numbers of one traced pass, over its measured region
    (prime + timed); the two set-up numbers come from the set-up span."""
    spans = outcome.tracer.spans
    setup = tracing.analyse(spans, outcome.roots["setup"])
    region = tracing.analyse(spans, outcome.roots["measured"])
    measured = ("prime", "timed")
    results = outcome.query_results(measured)
    counters = outcome.counters
    wall = outcome.seconds(outcome.roots["measured"])

    def total(name: str) -> float:
        return region.total_s.get(name, 0.0)

    def own(name: str) -> float:
        return region.self_s.get(name, 0.0)

    def calls(name: str) -> int:
        return region.calls.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    adaptations = region.values.get("adaptive.on_query", [])
    joins = [method for result in results for method in result.join_methods]
    reopened = "reopen" in [op.kind for op in outcome.ops]
    local = sum(stats.local_reads for stats in outcome.read_stats)
    remote = sum(stats.remote_reads for stats in outcome.read_stats)
    hits, faults = counters.get("buffer.hits", 0), counters.get("buffer.faults", 0)
    hyper_lookups = counters.get("cache.hyper_hits", 0) + counters.get("cache.hyper_misses", 0)
    busy = sum(sum(result.machine_wall_seconds) for result in results)
    workers = workload.config.get("num_workers", 0)

    metrics = {
        "workloads.generate_s": setup.total_s.get("workloads.generate", 0.0),
        "workloads.queries": len(results),
        "partitioning.load_table_s": setup.total_s.get("partitioning.load_table", 0.0),
        "partitioning.blocks_loaded": outcome.blocks_loaded,
        "partitioning.tree_lookup_s": total("partitioning.tree_lookup"),
        "partitioning.tree_lookup_calls": calls("partitioning.tree_lookup"),
        "partitioning.route_rows_s": total("partitioning.route_rows"),
        "partitioning.route_rows_calls": calls("partitioning.route_rows"),
        "partitioning.rows_routed": sum(region.values.get("partitioning.route_rows", [])),
        "adaptive.on_query_s": total("adaptive.on_query"),
        "adaptive.on_query_calls": calls("adaptive.on_query"),
        "adaptive.active_share": ratio(
            sum(1 for report in adaptations if report[0] > 0), len(adaptations)
        ),
        "adaptive.smooth_apply_s": total("adaptive.smooth_apply"),
        "adaptive.amoeba_adapt_s": total("adaptive.amoeba_adapt"),
        "adaptive.blocks_repartitioned": sum(report[0] for report in adaptations),
        "adaptive.rows_repartitioned": sum(report[1] for report in adaptations),
        "adaptive.trees_created": sum(report[2] for report in adaptations),
        "adaptive.amoeba_transforms": sum(report[3] for report in adaptations),
        "api.plan_self_s": own("api.plan"),
        "api.lower_self_s": own("api.lower"),
        "api.execute_self_s": own("api.execute"),
        "api.plan_cache_hit_rate": ratio(
            sum(result.plan_cache_hit for result in results), len(results)
        ),
        "api.plan_revalidations": counters.get("cache.plan_revalidations", 0),
        "core.plan_query_s": total("core.plan_query"),
        "core.plan_query_calls": calls("core.plan_query"),
        "core.relevant_blocks_s": total("core.relevant_blocks"),
        "join.hyper_plan_s": total("join.hyper_plan"),
        "join.hyper_cache_hit_rate": ratio(counters.get("cache.hyper_hits", 0), hyper_lookups),
        "join.hyper_upgrades": counters.get("cache.hyper_upgrades", 0),
        "join.hyper_join_share": ratio(joins.count("hyper"), len(joins)),
        "join.overlap_build_s": total("join.overlap_build"),
        "join.overlap_patch_s": total("join.overlap_patch"),
        "join.grouping_s": total("join.grouping"),
        "exec.compile_s": total("exec.compile"),
        "exec.schedule_s": total("exec.schedule"),
        "exec.lower_from_cache_share": ratio(
            calls("api.lower") - calls("exec.compile"), calls("api.lower")
        ),
        "exec.execute_s": total("exec.execute"),
        "exec.execute_self_s": own("exec.execute"),
        "exec.tasks_scheduled": sum(result.tasks_scheduled for result in results),
        "exec.blocks_read": sum(result.blocks_read for result in results),
        "exec.shuffled_blocks": sum(result.shuffled_blocks for result in results),
        "exec.output_rows": sum(result.output_rows for result in results),
        "exec.straggler_factor_mean": ratio(
            sum(result.straggler_factor for result in results), len(results)
        ),
        "storage.get_blocks_s": total("storage.get_blocks"),
        "storage.get_blocks_calls": calls("storage.get_blocks"),
        "storage.blocks_fetched": sum(region.values.get("storage.get_blocks", [])),
        "storage.locality_fraction": ratio(local, local + remote),
        "storage.move_blocks_s": total("storage.move_blocks"),
        "storage.move_blocks_calls": calls("storage.move_blocks"),
        "storage.epoch_bumps": counters.get("epochs", 0),
        "persist.buffer_hit_rate": ratio(hits, hits + faults),
        "persist.buffer_faults": faults,
        "persist.buffer_evictions": counters.get("buffer.evictions", 0),
        "persist.fault_s": total("persist.fault"),
        "persist.spills": counters.get("store.spills", 0),
        "persist.spill_s": total("persist.spill"),
        "persist.bytes_spilled_per_user_byte": ratio(
            counters.get("store.spilled_bytes", 0), outcome.user_bytes
        ),
        "persist.checkpoint_s": sum(outcome.op_seconds("checkpoint", measured)),
        "persist.checkpoint_blocks_spilled": sum(
            stats["blocks_spilled"] for stats in outcome.checkpoint_stats
        ),
        "persist.commit_s": total("persist.commit"),
        "persist.gc_s": total("persist.gc"),
        "persist.versions_removed": sum(
            stats["versions_removed"] for stats in outcome.checkpoint_stats
        ),
        "persist.files_on_disk": outcome.disk_files,
        "persist.disk_bytes_per_user_byte": ratio(outcome.disk_bytes, outcome.user_bytes),
        "persist.reopen_s": sum(outcome.op_seconds("reopen")),
        "persist.open_s": total("api.open"),
        "persist.replay_s": sum(outcome.op_seconds("query")) if reopened else 0.0,
        "parallel.pool_start_s": total("parallel.pool_start"),
        "parallel.pin_s": total("parallel.pin"),
        "parallel.pin_calls": calls("parallel.pin"),
        "parallel.pinned_bytes": outcome.pinned_bytes,
        "parallel.submit_s": total("parallel.submit"),
        "parallel.collect_s": total("parallel.collect"),
        "parallel.tasks_dispatched": calls("parallel.submit"),
        "parallel.worker_busy_s": busy,
        "parallel.worker_busy_share": ratio(busy, workers * total("exec.execute")),
        "bench.trace_wall_s": wall,
        "bench.attributed_share": ratio(
            sum(region.layer_self_s.get(layer, 0.0) for layer in LAYERS), wall
        ),
        "bench.spans": region.spans,
        "bench.cpu_s": outcome.cpu_s,
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_share"] = ratio(region.layer_self_s.get(layer, 0.0), wall)
    return metrics


# ---------------------------------------------------------------------- #
# once: one run in this process
# ---------------------------------------------------------------------- #
#: A run measures this many independent input sets made from its seed and
#: reports the mean over the sets of each set's median over passes: how long
#: a workload takes depends on the generated tables and query parameters
#: (0.82 to 1.00 s for ``steady`` over ten seeds), and averaging that out
#: inside a run is what keeps runs of different seeds comparable.
INPUT_SETS = 4


@dataclass
class InputSet:
    """The measured passes of one generated input set."""

    seed: int
    end_to_end: list[dict[str, float]] = field(default_factory=list)
    per_layer: list[dict[str, float]] = field(default_factory=list)
    measured_wall_s: list[float] = field(default_factory=list)
    exact: set[tuple] = field(default_factory=set)
    query_samples: int = 0
    #: The first untraced pass, kept as the reference run on the workloads
    #: whose passes already are memory-tier ``tasks`` runs.
    first: PassResult | None = None

    def add(self, outcome: PassResult, workload: Workload, traced: bool) -> None:
        if outcome.failures:
            return  # the caller counts them; a broken pass has no numbers
        self.exact.add(outcome.exact)
        if self.first is None and workload.reference_is_self:
            self.first = outcome
        if traced:
            self.per_layer.append(per_layer_of(outcome, workload))
        else:
            self.end_to_end.append(end_to_end_of(outcome))
            self.measured_wall_s.append(outcome.seconds(outcome.roots["measured"]))
            self.query_samples += len(outcome.op_seconds("query"))


def mean_of_medians(rows_per_set: list[list[dict[str, float]]]) -> dict[str, float]:
    """Per metric: the mean over input sets of the median over a set's passes."""
    return {
        name: statistics.fmean(
            statistics.median(row[name] for row in rows) for rows in rows_per_set
        )
        for name in rows_per_set[0][0]
    }


def stop_resource_tracker() -> None:
    """Stop and wait for multiprocessing's helper process, which pinning
    shared memory starts and which otherwise outlives this process briefly."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def once(args: argparse.Namespace) -> int:
    workload = BY_NAME[args.workload]
    storage_root = OUT / f"storage-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    targets = tracing.boundary_targets() if args.trace else []
    failures: list[str] = []
    attempted = 0

    def one_pass(seed: int, traced: bool = False, reference: bool = False) -> PassResult:
        nonlocal attempted
        tracer = tracing.Tracer()
        if traced:
            tracer.install(targets)
        try:
            outcome = run_pass(
                workload, seed, args.smoke, storage_root, tracer, reference=reference
            )
        finally:
            tracer.uninstall()
        failures.extend(outcome.failures)
        attempted += len(outcome.ops)
        return outcome

    count = 1 if args.smoke else INPUT_SETS
    sets = [InputSet(args.seed * count + index) for index in range(count)]
    # The warm-up pass fills the import, allocator and file-system caches
    # and is never measured.
    one_pass(sets[0].seed)
    last_trace: PassResult | None = None
    started = time.perf_counter()
    while True:
        for inputs in sets:
            inputs.add(one_pass(inputs.seed), workload, traced=False)
            if args.trace:
                last_trace = one_pass(inputs.seed, traced=True)
                inputs.add(last_trace, workload, traced=True)
        if time.perf_counter() - started >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if any(not inputs.end_to_end or (args.trace and not inputs.per_layer) for inputs in sets):
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1  # nothing was measured, so there is no result to print

    # Correctness, outside every timed region.  The reference is a
    # memory-tier ``tasks`` session over the same tables, config and stream;
    # its answers are compared with an independent join on the raw tables,
    # and every measured pass must reproduce its digest and, between
    # themselves, every count made with one client and no timer.
    digests = []
    for inputs in sets:
        reference = inputs.first or one_pass(inputs.seed, reference=True)
        mismatches = verify_answers(reference, make_inputs(workload, inputs.seed, args.smoke).tables)
        failures += mismatches
        attempted += len(reference.query_results()) + 2
        if len(inputs.exact) != 1:
            failures.append(f"input set {inputs.seed}: counts differ between passes")
        elif next(iter(inputs.exact))[0] != reference.digest:
            failures.append(f"input set {inputs.seed}: answers differ from the reference run")
        digests.append(reference.digest)
    attempted += 1
    if len(set(digests)) != len(digests):
        failures.append("two seeds gave the same answers")
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()

    if args.trace:
        assert last_trace is not None
        values = mean_of_medians([inputs.per_layer for inputs in sets])
        untraced_wall = statistics.fmean(
            statistics.median(inputs.measured_wall_s) for inputs in sets
        )
        values["bench.trace_overhead_share"] = values["bench.trace_wall_s"] / untraced_wall - 1.0
        declared = PER_LAYER
        (OUT / f"trace-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name,
            "seed": sets[-1].seed,
            "spans": tracing.export(last_trace.tracer.spans),
        }))
    else:
        values = mean_of_medians([inputs.end_to_end for inputs in sets])
        values["peak_rss_mib"] = peak_rss_mib
        declared = END_TO_END
    if set(values) != set(declared):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}"
        )

    stop_resource_tracker()
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name in declared:
        print(f"{workload.name:<10} {name:<40} {values[name]:>16.6f} {declared[name]['unit']}")
    print("info " + json.dumps({
        "digest": digest,
        "passes": sum(len(inputs.end_to_end) for inputs in sets),
        "traced_passes": sum(len(inputs.per_layer) for inputs in sets),
        "query_samples": sum(inputs.query_samples for inputs in sets),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": declared[name]["unit"]} for name in declared
        },
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------- #
# run: repeats in fresh subprocesses
# ---------------------------------------------------------------------- #
EXACT = ("model_cost_units", "model_makespan_units")


def environment() -> dict:
    """Where the numbers were taken."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "load_average": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "storage_dir": str(OUT),
    }


def spawn_once(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    """Run ``once`` in a fresh interpreter and parse what it printed."""
    command = [
        sys.executable, str(HERE / "bench.py"), "once", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    record: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "returncode": completed.returncode}
    lines = completed.stdout.splitlines()
    try:
        record.update(json.loads(lines[-1]))
        record.update(json.loads(lines[-2].removeprefix("info ")))
    except (IndexError, ValueError):
        record.update(correct=False, attempted=1, failed=1, metrics={})
    if completed.returncode or not record["correct"]:
        record["stderr"] = completed.stderr[-4000:]
        print(f"{workload} seed {seed}: FAILED\n{completed.stderr[-4000:]}", file=sys.stderr)
    return record


def summarise(runs: list[dict]) -> dict:
    """Per workload: quartiles of every end-to-end metric, and the traced numbers."""
    summary: dict = {}
    for name in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == name]
        untraced = [run for run in mine if not run["trace"] and run["metrics"]]
        end_to_end = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric]["value"] for run in untraced]
            if values:
                first, median, third = quartiles(values)
                end_to_end[metric] = {
                    "values": values, "q1": first, "median": median, "q3": third,
                    "spread": spread(values), "unit": END_TO_END[metric]["unit"],
                }
        traced = [run for run in mine if run["trace"] and run["metrics"]]
        summary[name] = {
            "end_to_end": end_to_end,
            "per_layer": traced[-1]["metrics"] if traced else {},
            "seeds": [run["seed"] for run in untraced],
            "digests": [run.get("digest") for run in untraced],
            "attempted": sum(run["attempted"] for run in mine),
            "failed": sum(run["failed"] for run in mine),
        }
    return summary


def run(args: argparse.Namespace) -> int:
    OUT.mkdir(exist_ok=True)
    lock = OUT / ".lock"
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        print(f"{lock} exists: another benchmark is running (or died; remove it)",
              file=sys.stderr)
        return 2
    try:
        names = args.workload or [workload.name for workload in WORKLOADS]
        seconds = 0 if args.smoke else args.seconds
        report: dict = {"environment": environment(), "seconds": seconds, "smoke": args.smoke}
        runs: list[dict] = []
        if not args.smoke:
            for name in names:  # discarded: warms the page cache for interpreter and numpy
                spawn_once(name, args.seed, 1, 0, smoke=True)
        for repeat in range(args.repeats):
            for name in names:
                runs.append(spawn_once(name, args.seed + repeat, seconds, 0, args.smoke))
        for name in names:
            runs.append(spawn_once(name, args.seed, seconds, 1, args.smoke))
        report["runs"] = runs
        report["workloads"] = summary = summarise(runs)

        problems = [
            f"{run['workload']} seed {run['seed']} trace {run['trace']}: "
            f"{run['failed']} of {run['attempted']} failed (exit {run['returncode']})"
            for run in runs if run["returncode"] or not run["correct"]
        ]
        for name, entry in summary.items():
            digests = entry["digests"]
            if len(set(digests)) != len(digests):
                problems.append(f"{name}: two seeds gave the same answer digest")
            print(f"\n{name}: seeds {entry['seeds']}, failed_share "
                  f"{entry['failed']}/{entry['attempted']}")
            for metric, stats in entry["end_to_end"].items():
                bound = END_TO_END[metric]["bound"]
                print(f"  {metric:<24} {stats['median']:>14.4f} {stats['unit']:<6} "
                      f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                      f"spread {stats['spread']:.4f} (bound {bound})")
            for metric, value in entry["per_layer"].items():
                print(f"  {metric:<40} {value['value']:>16.6f} {value['unit']}")
        report["problems"] = problems
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1))
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        return 1 if problems else 0
    finally:
        lock.unlink()


# ---------------------------------------------------------------------- #
# compare: two result files of `run`
# ---------------------------------------------------------------------- #
def compare(args: argparse.Namespace) -> int:
    first = json.loads(Path(args.a).read_text())["workloads"]
    second = json.loads(Path(args.b).read_text())["workloads"]
    verdict = 0
    for name in first:
        if name not in second:
            continue
        a, b = first[name], second[name]
        print(f"{name}: failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}")
        if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]:
            print("  failed_share rose")
            verdict = 1
        by_seed_a = dict(zip(a["seeds"], a["digests"]))
        for seed, digest in zip(b["seeds"], b["digests"]):
            if seed in by_seed_a and by_seed_a[seed] != digest:
                print(f"  seed {seed}: answer digest differs")
                verdict = 1
        for metric, spec in END_TO_END.items():
            if metric not in a["end_to_end"] or metric not in b["end_to_end"]:
                continue
            left, right = a["end_to_end"][metric], b["end_to_end"][metric]
            change = (right["median"] - left["median"]) / left["median"]
            worse = change if spec["better"] == "lower" else -change
            status = "ok"
            if metric in EXACT:
                values_a = dict(zip(a["seeds"], left["values"]))
                if any(values_a.get(seed, value) != value
                       for seed, value in zip(b["seeds"], right["values"])):
                    status = "EXACT METRIC DIFFERS"
                    verdict = 1
            if max(left["spread"], right["spread"]) > spec["bound"]:
                status = "unresolved" if status == "ok" else status
            elif worse > spec["bound"]:
                status = "WORSE"
                verdict = 1
            print(f"  {metric:<24} {left['median']:>12.4f} [{left['q1']:.4f}, {left['q3']:.4f}] -> "
                  f"{right['median']:>12.4f} [{right['q1']:.4f}, {right['q3']:.4f}] "
                  f"{worse:+.4f} worse (bound {spec['bound']}) {status}")
    return verdict


def main() -> int:
    # The workloads fix their own persistence settings; the defaults the
    # library reads from the environment must not change what is measured.
    for variable in ("REPRO_PERSISTENCE", "REPRO_BUFFER_BYTES", "REPRO_STORAGE_ROOT"):
        os.environ.pop(variable, None)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    single = commands.add_parser("once", help="one run in this process")
    single.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    single.add_argument("--seed", type=int, default=1)
    single.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    single.set_defaults(function=once)

    many = commands.add_parser("run", help="repeats in fresh subprocesses")
    many.add_argument("--seed", type=int, default=1, help="seed of the first repeat")
    many.add_argument("--repeats", type=int, default=10)
    many.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    many.add_argument("--workload", action="append", choices=sorted(BY_NAME))
    many.add_argument("--smoke", action="store_true", help="tiny inputs, one second per run")
    many.add_argument("--out", default=str(OUT / "results.json"))
    many.set_defaults(function=run)

    versus = commands.add_parser("compare", help="compare two result files of `run`")
    versus.add_argument("a")
    versus.add_argument("b")
    versus.set_defaults(function=compare)

    args = parser.parse_args()
    return args.function(args)


if __name__ == "__main__":
    sys.exit(main())
