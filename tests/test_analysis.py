"""Tests for repro.analysis: the AST invariant checkers.

Each rule is exercised twice: a known-bad snippet must fire it, and the
fixed twin must stay quiet.  The suite ends with the live gate — the whole
``src/repro`` tree analyzes clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import ALL_CHECKERS, ALL_RULES, analyze_paths, analyze_source
from repro.analysis.__main__ import render_rules

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def rules_of(violations):
    return {violation.rule for violation in violations}


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_wall_clock_fires(self):
        violations = analyze_source(
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
            module="repro.join.snippet",
        )
        assert rules_of(violations) == {"no-wall-clock"}

    def test_from_time_import_fires(self):
        violations = analyze_source(
            "from time import perf_counter\n", module="repro.exec.snippet"
        )
        assert rules_of(violations) == {"no-wall-clock"}

    def test_set_for_loop_fires_and_sorted_fixes_it(self):
        bad = (
            "def f():\n"
            "    out = []\n"
            "    for x in {3, 1, 2}:\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        assert rules_of(analyze_source(bad, module="repro.adaptive.snippet")) == {
            "unsorted-set-iter"
        }
        good = bad.replace("in {3, 1, 2}", "in sorted({3, 1, 2})")
        assert analyze_source(good, module="repro.adaptive.snippet") == []

    def test_order_free_consumers_are_allowed(self):
        text = "def f(s: set[int]):\n    return sum(x * 2 for x in s)\n"
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_list_of_set_fires(self):
        text = "def f(s: set[int]):\n    return list(s)\n"
        assert rules_of(analyze_source(text, module="repro.exec.snippet")) == {
            "unsorted-set-iter"
        }

    def test_dict_of_sets_propagates_through_items(self):
        text = (
            "def deps(tasks) -> dict[int, set[int]]:\n"
            "    return {}\n"
            "\n"
            "\n"
            "def g(tasks):\n"
            "    out = []\n"
            "    for key, values in deps(tasks).items():\n"
            "        for value in values:\n"
            "            out.append(value)\n"
            "    return out\n"
        )
        assert rules_of(analyze_source(text, module="repro.exec.snippet")) == {
            "unsorted-set-iter"
        }


# --------------------------------------------------------------------- #
# framework mechanics
# --------------------------------------------------------------------- #
CLOCK_READ = "from time import perf_counter"
SET_LOOP = "for x in {3, 1, 2}:\n    print(x)\n"


class TestFramework:
    def test_suppression_on_the_line(self):
        text = f"{CLOCK_READ}  # repro: allow[no-wall-clock]\n"
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_suppression_on_the_line_above(self):
        text = f"# repro: allow[no-wall-clock]\n{CLOCK_READ}\n"
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_suppression_with_wrong_rule_id_does_not_apply(self):
        text = f"{CLOCK_READ}  # repro: allow[unsorted-set-iter]\n"
        violations = analyze_source(text, module="repro.exec.snippet")
        assert rules_of(violations) == {"no-wall-clock"}

    def test_rules_filter(self):
        text = f"{CLOCK_READ}\n{SET_LOOP}"
        violations = analyze_source(
            text,
            module="repro.exec.snippet",
            rules=frozenset({"no-wall-clock"}),
        )
        assert rules_of(violations) == {"no-wall-clock"}

    def test_render_format(self):
        violations = analyze_source(
            f"{CLOCK_READ}\n", module="repro.exec.snippet", path="x.py"
        )
        rendered = violations[0].render()
        assert rendered.startswith("x.py:1: [no-wall-clock]")
        assert "(" in rendered  # the fix hint

    def test_checker_rule_ids_are_unique(self):
        all_rules = [
            rule for checker in ALL_CHECKERS for rule in checker.rules
        ]
        assert len(all_rules) == len(set(all_rules))
        assert set(all_rules) == set(ALL_RULES)


# --------------------------------------------------------------------- #
# the live gates
# --------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_src_tree_has_no_violations(self):
        # The same paths CI's static-analysis job gates on: nothing is
        # accepted through a baseline, so every finding is a failure.
        violations, num_files = analyze_paths(
            [SRC, REPO / "tests", REPO / "benchmarks"]
        )
        assert num_files > 50
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exits_zero_on_clean_tree(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout

    def test_cli_rejects_unknown_rule(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--rules", "no-such-rule"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode != 0


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_multi_rule_suppression(self):
        text = (
            "import time\n"
            "t = [time.time() for x in {1, 2}]  "
            "# repro: allow[no-wall-clock, unsorted-set-iter]\n"
        )
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_multi_rule_suppression_needs_the_right_id(self):
        text = (
            "import time\n"
            "t = [time.time() for x in {1, 2}]  "
            "# repro: allow[unsorted-set-iter]\n"
        )
        violations = analyze_source(text, module="repro.exec.snippet")
        assert rules_of(violations) == {"no-wall-clock"}

    def test_suppression_on_decorator_line_covers_it(self):
        text = """
import functools
import time


# repro: allow[no-wall-clock]
@functools.lru_cache(int(time.perf_counter()))
def f(x):
    return x
"""
        assert analyze_source(text, module="repro.exec.snippet") == []


# --------------------------------------------------------------------- #
# the report: a rules listing, text findings, an exit code
# --------------------------------------------------------------------- #
class TestReportFormats:
    def test_rules_listing_covers_every_rule(self):
        listing = render_rules(ALL_CHECKERS)
        for rule in ALL_RULES:
            assert rule in listing


class TestCLIFormats:
    def _run(self, tmp_path, *extra):
        # The file's path puts it in a fingerprinted package.
        bad = tmp_path / "repro" / "exec" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nstarted = time.perf_counter()\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad), *extra],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )

    def test_text_findings_exit_code_and_timing_line(self, tmp_path):
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "bad.py:3: [no-wall-clock]" in proc.stdout
        assert "1 violation(s) across 1 file(s)" in proc.stdout
        assert "repro.analysis: 1 file(s) in" in proc.stderr

    def test_rules_listing_mode(self, tmp_path):
        proc = self._run(tmp_path, "--rules")
        assert proc.returncode == 0
        assert "unsorted-set-iter" in proc.stdout
        # Epoch discipline, delta completeness, read-only attached views,
        # the task hand-off and the catalog write path hold by construction;
        # randomness is caught by the configuration matrix.
        for deleted in (
            "catalog-transaction",
            "no-stdlib-random",
            "no-global-numpy-rng",
            "unseeded-rng",
            "epoch-discipline",
            "delta-completeness",
            "shmem-attached-write",
            "shmem-parent-state",
            "shmem-payload-frozen",
            "task-purity-field",
            "task-purity-capture",
            "cache-key-read",
            "cache-key-registration",
        ):
            assert deleted not in proc.stdout
