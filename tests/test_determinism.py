"""Adaptive decisions are pure functions of the seeded workload.

Amoeba re-splits, smooth migration, hyper-join grouping and task placement
must not read the wall clock or depend on hash order: that is what lets
fingerprints be compared across backends, tiers and restarts.  Two
perturbation tests check it on ``TestGoldenDigests``' streams plus one
adaptive stream (Amoeba re-splits, smooth migration, both join methods,
both backends and a checkpoint/reopen):

* **Clock.**  Every ``repro`` module sees an adversarial clock (a fixed
  sequence that decreases, repeats and jumps by a million seconds) while the
  standard library keeps the real one.  The golden literals must hold, and
  every query's fingerprint and ``explain_full()`` must equal a run on the
  real clock.
* **Hash order.**  This file is also a script.  ``python
  tests/test_determinism.py`` runs the same streams and prints one JSON
  line.  The test runs it under ``PYTHONHASHSEED=0`` and ``=1``, and the two
  digests must be equal.  A pytest run draws a random hash seed, so without
  this test a hash-order bug would show up only as a flake.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import itertools
import json
import multiprocessing.connection
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

import repro
from repro.api import Session
from repro.common.rng import make_rng
from repro.core import AdaptDBConfig
from repro.workloads.generators import switching_workload
from repro.workloads.tpch import LINEITEM_SCHEMA, TPCHGenerator
from repro.workloads.tpch_queries import (
    EVALUATED_TEMPLATES,
    tables_for_templates,
    tpch_query,
)

HERE = Path(__file__).resolve().parent


def _load_golden_streams():
    """``tests/test_integration.py``, loaded by path.

    It defines the golden streams and ``TestGoldenDigests``' literals.  This
    file also runs as a script, where ``tests`` is not a package.
    """
    spec = importlib.util.spec_from_file_location("golden_streams", HERE / "test_integration.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_streams()

#: Every stream and configuration both tests run: ``TestGoldenDigests``'
#: four switching and three scan configurations, then the adaptive stream.
STREAMS = (
    *(
        ("switching", backend, persistence)
        for backend in ("tasks", "parallel")
        for persistence in ("memory", "mmap")
    ),
    ("scans", "tasks", None),
    ("scans", "parallel", 1),
    ("scans", "parallel", 2),
    ("adaptive", None, None),
)


def stream_id(stream) -> str:
    return "-".join(map(str, stream))


def adaptive_stream(root: Path):
    """48 queries that adapt in every way the golden streams do not.

    The switching stream, with a q6 scan after every query: small blocks
    and a two-block buffer make Amoeba re-split (with benefit ties between
    q6's three attributes) and the optimizer choose shuffle joins as well
    as hyper-joins.  The first half runs on ``tasks``; the session then
    checkpoints and reopens on ``parallel`` for the second half.
    """
    templates = list(EVALUATED_TEMPLATES)
    tables = TPCHGenerator(scale=0.05, seed=1).generate(tables_for_templates(templates))
    rng = make_rng(1)
    queries = [
        query
        for switching in switching_workload(templates, 3, rng)
        for query in (switching, tpch_query("q6", rng))
    ]
    half = len(queries) // 2
    config = AdaptDBConfig(
        rows_per_block=64, buffer_blocks=2, num_machines=4, seed=1, num_workers=2,
        persistence="mmap", storage_root=str(root),
    )
    with Session(config) as session:
        for table in tables.values():
            session.load_table(table)
        first, first_explains = golden.explained_run(session, queries[:half])
        session.checkpoint()
    with Session.open(root) as session:
        session.use_backend("parallel")
        second, second_explains = golden.explained_run(session, queries[half:])
    return first + second, first_explains + second_explains


def run_stream(stream, root: Path):
    """Run one entry of ``STREAMS``.

    Returns per-query ``(fingerprint, explain_full())`` pairs, the golden
    digest (``None`` for the adaptive stream) and what the stream exercised.
    """
    kind, first, second = stream
    if kind == "switching":
        results, explains = golden.golden_switching_stream(first, second, root)
        digest = golden.switching_decisions_digest(results)
    elif kind == "scans":
        results, explains = golden.golden_scan_stream(first, second)
        digest = golden.scan_digest(results)
    else:
        results, explains = adaptive_stream(root)
        digest = None
    outcomes = [
        [list(result.fingerprint()), explain]
        for result, explain in zip(results, explains, strict=True)
    ]
    coverage = {
        "amoeba_transforms": sum(
            int(count)
            for explain in explains
            for count in re.findall(r"amoeba_transforms=(\d+)", explain)
        ),
        "blocks_repartitioned": sum(result.blocks_repartitioned for result in results),
        "join_methods": sorted({m for result in results for m in result.join_methods}),
    }
    return outcomes, digest, coverage


def expected_digest(kind: str) -> str | None:
    literals = golden.TestGoldenDigests
    return {
        "switching": literals.SEED_ENGINE_DECISIONS,
        "scans": literals.SCAN_FINGERPRINTS,
    }.get(kind)


def assert_adaptive_coverage(coverage) -> None:
    """The adaptive stream re-splits, migrates and runs both join methods."""
    assert coverage["amoeba_transforms"] > 0, coverage
    assert coverage["blocks_repartitioned"] > 0, coverage
    assert coverage["join_methods"] == ["hyper", "shuffle"], coverage


# --------------------------------------------------------------------- #
# Clock perturbation
# --------------------------------------------------------------------- #
#: The adversarial clock's steps between readings, in a fixed cycle: it
#: jumps by ±1e6 s, repeats and goes back by a second.  It drifts forward,
#: so a time budget runs out at once, while a duration can be negative.
HOSTILE_STEPS = (1e6, 0.0, 1e6, -1.0, 1e6, -1e6, 1e6)
CLOCKS = ("perf_counter", "monotonic", "time", "process_time")


def hostile_readings():
    """The adversarial clock's readings, from 1e6 s on."""
    reading = 1e6
    for step in itertools.cycle(HOSTILE_STEPS):
        yield reading
        reading += step


class HostileTime:
    """Stands in for the ``time`` module inside ``repro``.

    Its clocks (and their ``_ns`` forms) share one sequence of
    :func:`hostile_readings`.  Every other attribute is the real module's.
    """

    def __init__(self) -> None:
        self._readings = hostile_readings()
        self.replacements = {}
        for name in CLOCKS:
            setattr(self, name, self._seconds)
            setattr(self, f"{name}_ns", self._nanoseconds)
            self.replacements[getattr(time, name)] = self._seconds
            self.replacements[getattr(time, f"{name}_ns")] = self._nanoseconds

    def _seconds(self) -> float:
        return next(self._readings)

    def _nanoseconds(self) -> int:
        return int(next(self._readings) * 1e9)

    def __getattr__(self, name: str):
        return getattr(time, name)


def install_hostile_clock(monkeypatch) -> HostileTime:
    """Give every ``repro`` module the adversarial clock.

    Every module of the package is imported first, so a module loaded
    later cannot bring the real clock back.  A module's ``time`` global
    becomes a :class:`HostileTime`, and a global bound to a real clock
    function (``from time import perf_counter``) becomes the hostile one.
    Pool workers fork after this and inherit it.
    """
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    hostile = HostileTime()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is time:
                monkeypatch.setattr(module, attribute, hostile)
            elif isinstance(value, types.BuiltinFunctionType) and value in hostile.replacements:
                monkeypatch.setattr(module, attribute, hostile.replacements[value])
    return hostile


@pytest.fixture
def hostile_clock(monkeypatch):
    return install_hostile_clock(monkeypatch)


@pytest.fixture(scope="module")
def real_clock_outcomes(tmp_path_factory):
    """Per stream kind, the outcomes of one run on the real clock."""
    root = tmp_path_factory.mktemp("real-clock")
    return {
        stream[0]: run_stream(stream, root / stream[0])[0]
        for stream in (
            ("switching", "tasks", "memory"), ("scans", "tasks", None), ("adaptive", None, None)
        )
    }


class TestClock:
    def test_the_hostile_clock_reaches_repro_and_spares_the_stdlib(self, monkeypatch):
        import repro.adaptive.smooth as smooth
        import repro.api.session as session

        monkeypatch.setattr(smooth, "perf_counter", time.perf_counter, raising=False)
        install_hostile_clock(monkeypatch)
        expected = list(itertools.islice(hostile_readings(), 10))
        assert [session.time.perf_counter() for _ in range(8)] == expected[:8]
        assert smooth.perf_counter() == expected[8]
        assert session.time.monotonic_ns() == int(expected[9] * 1e9)
        assert session.time.sleep is time.sleep
        assert multiprocessing.connection.time is time
        assert time.monotonic is not session.time.monotonic

    @pytest.mark.parametrize("stream", STREAMS, ids=stream_id)
    def test_decisions_ignore_the_clock(
        self, stream, real_clock_outcomes, hostile_clock, tmp_path
    ):
        outcomes, digest, coverage = run_stream(stream, tmp_path / "root")
        kind = stream[0]
        assert digest == expected_digest(kind)
        if kind == "adaptive":
            assert_adaptive_coverage(coverage)
        for position, (outcome, reference) in enumerate(
            zip(outcomes, real_clock_outcomes[kind], strict=True)
        ):
            assert outcome == reference, f"query {position} of {stream}"


# --------------------------------------------------------------------- #
# Hash-order perturbation
# --------------------------------------------------------------------- #
def hash_order_report() -> dict:
    """What one interpreter answers; the script prints it as one line."""
    digest = hashlib.sha256()
    golden_digests, coverage = {}, {}
    with tempfile.TemporaryDirectory(prefix="repro-hash-order-") as scratch:
        for position, stream in enumerate(STREAMS):
            outcomes, stream_digest, coverage[stream[0]] = run_stream(
                stream, Path(scratch) / str(position)
            )
            digest.update(json.dumps(outcomes).encode())
            if stream_digest is not None:
                golden_digests[stream_id(stream)] = stream_digest
    return {
        "digest": digest.hexdigest(),
        "golden": golden_digests,
        "adaptive_coverage": coverage["adaptive"],
        "set_order": list(set(LINEITEM_SCHEMA.column_names)),
    }


#: The subprocesses import ``repro`` from this checkout, as pytest does.
PYTHONPATH = os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])
)


def test_decisions_ignore_the_hash_seed():
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": PYTHONPATH},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    reports = []
    for run in runs:
        stdout, _ = run.communicate(timeout=300)
        assert run.returncode == 0
        reports.append(json.loads(stdout))
    first, second = reports
    assert first["set_order"] != second["set_order"], "the hash seeds did not take"
    for report in reports:
        assert len(report["golden"]) == len(STREAMS) - 1
        for name, digest in report["golden"].items():
            assert digest == expected_digest(name.split("-")[0]), name
        assert_adaptive_coverage(report["adaptive_coverage"])
    assert first["digest"] == second["digest"]


if __name__ == "__main__":
    print(json.dumps(hash_order_report()))
