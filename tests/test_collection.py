"""Whole-repo collection smoke test.

Regression guard for the conftest collision that used to break the tier-1
command: ``benchmarks/conftest.py`` and ``tests/conftest.py`` both imported
as a top-level ``conftest`` module, so collecting the repo root failed before
a single test ran.  ``--import-mode=importlib`` (set in ``pyproject.toml``)
gives each module a unique name; this test collects the entire repository in
a subprocess to prove the suite stays collectable.

Also guards the package's import graph: ``repro.api`` and ``repro.parallel``
must each be importable *first* in a fresh interpreter (``repro/__init__``
used to need a hand-ordered import to dodge a ``core`` <-> ``api`` cycle).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_whole_repo_collects():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        "pytest --collect-only failed over the whole repo:\n"
        f"{completed.stdout}\n{completed.stderr}"
    )
    summary = completed.stdout.strip().splitlines()[-1]
    assert "error" not in summary.lower(), summary


@pytest.mark.parametrize("module", ["repro.api", "repro.parallel"])
def test_subpackage_imports_first_in_a_fresh_interpreter(module):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
