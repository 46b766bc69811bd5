"""Smoke test of the layered benchmark: the output schema, not the numbers.

Runs ``bench.py run --smoke`` (tiny inputs, one repeat, one second per run)
and checks that exactly the workloads and metrics BENCHMARK.json declares
come out, that nothing failed, and that no storage root, lock or
shared-memory segment is left behind.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _leftovers() -> set[str]:
    found = {
        str(path)
        for path in Path(tempfile.gettempdir()).glob("repro-storage-*")
    }
    shm = Path("/dev/shm")
    if shm.is_dir():
        found |= {str(path) for path in shm.iterdir()}
    out = HERE / "out"
    if out.is_dir():
        found |= {str(path) for path in out.iterdir() if path.name.startswith((".lock", "storage-"))}
    return found


def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path: Path) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    end_to_end = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    assert len(workloads) == 4
    assert "setup_s" in end_to_end
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.match(name), name

    before = _leftovers()
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "run", "--smoke", "--repeats", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-4000:]
    report = json.loads(out.read_text())

    assert report["problems"] == []
    assert list(report["workloads"]) == workloads
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert {metric: stats["unit"] for metric, stats in entry["end_to_end"].items()} == end_to_end
        assert {metric: value["unit"] for metric, value in entry["per_layer"].items()} == per_layer
        for stats in entry["end_to_end"].values():
            assert stats["median"] > 0
    assert (HERE / "out" / "trace-switching.json").is_file()
    assert _leftovers() <= before
