"""Tests for repro.analysis: the AST invariant checkers.

Each rule is exercised twice: a known-bad snippet must fire it, and the
fixed twin must stay quiet.  The suite ends with the live gates — the
whole ``src/repro`` tree analyzes clean, and so do the benchmark and
example scripts for the everywhere-on ``unseeded-rng`` rule.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    ALL_RULES,
    SourceFile,
    analyze_files,
    analyze_paths,
    analyze_source,
)
from repro.analysis.framework import Violation
from repro.analysis.report import (
    render_rules,
    violations_to_json,
    violations_to_sarif,
)
from repro.common.errors import PlanningError
from repro.common.lru import BoundedLRU

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def rules_of(violations):
    return {violation.rule for violation in violations}


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_stdlib_random_fires_in_scope(self):
        violations = analyze_source("import random\n", module="repro.exec.snippet")
        assert rules_of(violations) == {"no-stdlib-random"}

    def test_stdlib_random_allowed_out_of_scope(self):
        assert analyze_source("import random\n", module="repro.workloads.gen") == []

    def test_global_numpy_rng_fires(self):
        violations = analyze_source(
            "import numpy as np\n\n\ndef f(x):\n    np.random.shuffle(x)\n",
            module="repro.sim.snippet",
        )
        assert "no-global-numpy-rng" in rules_of(violations)

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
        assert rules_of(analyze_source(text, module="repro.sim.snippet")) == {
            "unsorted-set-iter"
        }

    def test_unseeded_default_rng_fires_everywhere(self):
        text = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert rules_of(analyze_source(text, module="repro.workloads.bench")) == {
            "unseeded-rng"
        }
        seeded = text.replace("default_rng()", "default_rng(7)")
        assert analyze_source(seeded, module="repro.workloads.bench") == []


# --------------------------------------------------------------------- #
# cache keys
# --------------------------------------------------------------------- #
class TestCacheKeys:
    def test_undeclared_mutable_read_fires(self):
        text = (
            "from repro.common.epochs import epoch_keyed\n"
            "\n"
            "\n"
            '@epoch_keyed(reads=("epoch",))\n'
            "def relevant(table, predicates):\n"
            "    return table.lookup(predicates)\n"
        )
        violations = analyze_source(text, module="repro.core.snippet")
        assert rules_of(violations) == {"cache-key-read"}
        assert "lookup" in violations[0].message

    def test_declared_read_is_quiet(self):
        text = (
            "from repro.common.epochs import epoch_keyed\n"
            "\n"
            "\n"
            '@epoch_keyed(reads=("epoch", "lookup"))\n'
            "def relevant(table, predicates):\n"
            "    return table.lookup(predicates)\n"
        )
        assert analyze_source(text, module="repro.core.snippet") == []

    def test_missing_registrations_fire(self):
        violations = analyze_source("X = 1\n", module="repro.join.hyperjoin")
        assert rules_of(violations) == {"cache-key-registration"}
        messages = " ".join(violation.message for violation in violations)
        assert "plan_hyper_join" in messages
        assert "HyperPlanCache.get_or_plan" in messages

    def test_present_registrations_are_quiet(self):
        text = (
            "from repro.common.epochs import epoch_keyed\n"
            "\n"
            "\n"
            "@epoch_keyed(reads=())\n"
            "def plan_hyper_join():\n"
            "    return None\n"
            "\n"
            "\n"
            "class HyperPlanCache:\n"
            "    @epoch_keyed(reads=())\n"
            "    def get_or_plan(self):\n"
            "        return None\n"
        )
        assert analyze_source(text, module="repro.join.hyperjoin") == []


# --------------------------------------------------------------------- #
# task purity
# --------------------------------------------------------------------- #
class TestTaskPurity:
    def test_banned_field_annotation_fires(self):
        text = (
            "class Task:\n"
            "    kind: int\n"
            '    block: "Block"\n'
        )
        violations = analyze_source(text, module="repro.exec.tasks_snippet")
        assert rules_of(violations) == {"task-purity-field"}
        assert len(violations) == 1  # only the Block field, not ``kind``

    def test_tainted_capture_fires_and_ids_are_fine(self):
        bad = (
            "def compile_tasks(dfs, ids):\n"
            "    blocks = dfs.get_blocks(ids)\n"
            "    return Task(blocks)\n"
        )
        violations = analyze_source(bad, module="repro.exec.snippet")
        assert rules_of(violations) == {"task-purity-capture"}
        good = bad.replace("Task(blocks)", "Task(ids)")
        assert analyze_source(good, module="repro.exec.snippet") == []

    def test_direct_storage_call_argument_fires(self):
        text = "def f(dfs):\n    return Task(dfs.get_block(3))\n"
        assert rules_of(analyze_source(text, module="repro.exec.snippet")) == {
            "task-purity-capture"
        }

    def test_out_of_scope_module_is_quiet(self):
        text = "def f(dfs):\n    return Task(dfs.get_block(3))\n"
        assert analyze_source(text, module="repro.workloads.snippet") == []


# --------------------------------------------------------------------- #
# framework mechanics
# --------------------------------------------------------------------- #
class TestFramework:
    def test_suppression_on_the_line(self):
        text = "import random  # repro: allow[no-stdlib-random]\n"
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_suppression_on_the_line_above(self):
        text = "# repro: allow[no-stdlib-random]\nimport random\n"
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_suppression_with_wrong_rule_id_does_not_apply(self):
        text = "import random  # repro: allow[no-wall-clock]\n"
        violations = analyze_source(text, module="repro.exec.snippet")
        assert rules_of(violations) == {"no-stdlib-random"}

    def test_rules_filter(self):
        text = "import random\nimport time\n\nt = time.time()\n"
        violations = analyze_source(
            text,
            module="repro.exec.snippet",
            rules=frozenset({"no-wall-clock"}),
        )
        assert rules_of(violations) == {"no-wall-clock"}

    def test_render_format(self):
        violations = analyze_source(
            "import random\n", module="repro.exec.snippet", path="x.py"
        )
        rendered = violations[0].render()
        assert rendered.startswith("x.py:1: [no-stdlib-random]")
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

    def test_benchmarks_and_examples_use_seeded_rngs(self):
        paths = [REPO / "benchmarks", REPO / "examples"]
        violations, num_files = analyze_paths(
            paths, rules=frozenset({"unseeded-rng"})
        )
        assert num_files > 0
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
# BoundedLRU key hygiene (satellite)
# --------------------------------------------------------------------- #
class TestBoundedLRUKeys:
    def test_unhashable_put_raises_planning_error(self):
        cache = BoundedLRU(capacity=4)
        with pytest.raises(PlanningError, match="not hashable"):
            cache.put(["list", "key"], "value")

    def test_unhashable_get_raises_planning_error(self):
        cache = BoundedLRU(capacity=4)
        with pytest.raises(PlanningError, match="not hashable"):
            cache.get({"dict": "key"})

    def test_hashable_keys_still_work(self):
        cache = BoundedLRU(capacity=2)
        cache.put(("a", 1), "x")
        assert cache.get(("a", 1)) == "x"
        assert cache.hits == 1


# --------------------------------------------------------------------- #
# shmem races
# --------------------------------------------------------------------- #
class TestShmemRaces:
    def test_worker_write_to_attached_view_fires(self):
        violations = analyze_source(
            """
def run_scan(view, payload):
    arr = view.columns["a"]
    arr[0] = 1.0
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-attached-write"}

    def test_copy_before_write_is_quiet(self):
        assert (
            analyze_source(
                """
import numpy as np


def run_scan(view, payload):
    arr = np.array(view.columns["a"])
    arr[0] = 1.0
""",
                module="repro.exec.kernels_tasks",
            )
            == []
        )

    def test_taint_flows_through_helper_calls(self):
        violations = analyze_source(
            """
def _helper(block):
    block[0] = 99


def run_scan(view, payload):
    _helper(view.columns["a"])
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-attached-write"}
        assert "_helper" in violations[0].message

    def test_inplace_ndarray_method_fires(self):
        violations = analyze_source(
            """
def run_scan(view, payload):
    view.columns["a"].sort()
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-attached-write"}

    def test_setflags_write_false_is_sanctioned(self):
        text_template = """
def run_scan(view, payload):
    view.columns["a"].setflags(write={value})
"""
        assert (
            analyze_source(
                text_template.format(value="False"),
                module="repro.exec.kernels_tasks",
            )
            == []
        )
        violations = analyze_source(
            text_template.format(value="True"),
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-attached-write"}

    def test_parent_only_api_call_fires(self):
        violations = analyze_source(
            """
def run_scan(view, payload, store):
    store.pin_table(payload.table)
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-parent-state"}

    def test_parent_type_reference_fires(self):
        violations = analyze_source(
            """
def run_scan(view, payload):
    return WorkerPool
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-parent-state"}

    def test_non_worker_function_is_out_of_scope(self):
        # apply_* helpers run parent-side; the worker rules must not reach
        # functions unreachable from the worker roots.
        assert (
            analyze_source(
                """
def apply_results(table, results):
    table.pin_table("t")
""",
                module="repro.exec.kernels_tasks",
            )
            == []
        )

    def test_unfrozen_payload_class_fires(self):
        violations = analyze_source(
            """
from dataclasses import dataclass


@dataclass
class TaskWork:
    task_id: int
""",
            module="repro.exec.kernels_tasks",
        )
        assert rules_of(violations) == {"shmem-payload-frozen"}
        assert (
            analyze_source(
                """
from dataclasses import dataclass


@dataclass(frozen=True)
class TaskWork:
    task_id: int
""",
                module="repro.exec.kernels_tasks",
            )
            == []
        )


# --------------------------------------------------------------------- #
# catalog-transaction
# --------------------------------------------------------------------- #
class TestCatalogTransaction:
    def test_bare_write_execute_fires(self):
        violations = analyze_source(
            """
def save(conn):
    conn.execute("INSERT INTO meta VALUES (?, ?)", ("k", "v"))
""",
            module="repro.storage.persist.snippet",
        )
        assert rules_of(violations) == {"catalog-transaction"}

    def test_write_inside_transaction_block_is_quiet(self):
        assert (
            analyze_source(
                """
def save(catalog):
    with catalog.transaction() as cur:
        cur.execute("INSERT INTO meta VALUES (?, ?)", ("k", "v"))
        cur.executemany("DELETE FROM blocks WHERE block_id = ?", [(1,)])
""",
                module="repro.storage.persist.snippet",
            )
            == []
        )

    def test_literal_reads_and_pragmas_are_quiet(self):
        assert (
            analyze_source(
                """
def read(conn):
    conn.execute("PRAGMA journal_mode=WAL")
    return conn.execute("SELECT value FROM meta WHERE key = ?", ("k",)).fetchone()
""",
                module="repro.storage.persist.snippet",
            )
            == []
        )

    def test_transaction_machinery_statements_are_quiet(self):
        assert (
            analyze_source(
                """
def transaction(conn):
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("COMMIT")
    conn.execute("ROLLBACK")
""",
                module="repro.storage.persist.snippet",
            )
            == []
        )

    def test_non_literal_sql_outside_transaction_fires(self):
        violations = analyze_source(
            """
def replay(conn, statements):
    for statement in statements:
        conn.execute(statement)
""",
            module="repro.storage.persist.snippet",
        )
        assert rules_of(violations) == {"catalog-transaction"}

    def test_non_literal_sql_inside_transaction_is_quiet(self):
        assert (
            analyze_source(
                """
def replay(catalog, statements):
    with catalog.transaction() as cur:
        for statement in statements:
            cur.execute(statement)
""",
                module="repro.storage.persist.snippet",
            )
            == []
        )

    def test_mutating_fstring_outside_transaction_fires(self):
        violations = analyze_source(
            """
def drop(conn, table):
    conn.execute(f"DELETE FROM {table}")
""",
            module="repro.storage.persist.snippet",
        )
        assert rules_of(violations) == {"catalog-transaction"}

    def test_rule_is_scoped_to_the_persist_package(self):
        assert (
            analyze_source(
                """
def save(conn):
    conn.execute("INSERT INTO t VALUES (1)")
""",
                module="repro.workloads.snippet",
            )
            == []
        )


# --------------------------------------------------------------------- #
# cross-file whole-program analysis
# --------------------------------------------------------------------- #
class TestCrossFileAnalysis:
    WORKER = """
from repro.join.helpers import rescale


def run_scan(view, payload):
    rescale(view.columns["a"])
"""

    def _analyze_pair(self, helper_text):
        files = [
            SourceFile.from_text(
                self.WORKER, path="kernels_tasks.py", module="repro.exec.kernels_tasks"
            ),
            SourceFile.from_text(
                helper_text, path="helpers.py", module="repro.join.helpers"
            ),
        ]
        return analyze_files(files, ALL_CHECKERS)

    def test_attached_array_copied_in_cross_file_helper_is_quiet(self):
        violations = self._analyze_pair(
            """
import numpy as np


def rescale(values):
    fresh = np.array(values)
    fresh[0] = 0.0
    return fresh
"""
        )
        assert violations == []

    def test_attached_array_written_in_cross_file_helper_fires(self):
        violations = self._analyze_pair(
            """
def rescale(values):
    values[0] = 0.0
"""
        )
        assert rules_of(violations) == {"shmem-attached-write"}
        assert [violation.path for violation in violations] == ["helpers.py"]


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_multi_rule_suppression(self):
        text = (
            "import time\n"
            "t = time.time()  "
            "# repro: allow[no-wall-clock, no-stdlib-random]\n"
        )
        assert analyze_source(text, module="repro.exec.snippet") == []

    def test_multi_rule_suppression_needs_the_right_id(self):
        text = (
            "import time\n"
            "t = time.time()  "
            "# repro: allow[no-stdlib-random, unseeded-rng]\n"
        )
        violations = analyze_source(text, module="repro.exec.snippet")
        assert rules_of(violations) == {"no-wall-clock"}

    def test_suppression_on_decorator_line_covers_it(self):
        text = """
import numpy as np


# repro: allow[no-global-numpy-rng, unseeded-rng]
@np.vectorize(np.random.default_rng())
def f(x):
    return x
"""
        assert analyze_source(text, module="repro.exec.snippet") == []


# --------------------------------------------------------------------- #
# report formats
# --------------------------------------------------------------------- #
SARIF_SHAPE_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    }
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "ruleId",
                                "level",
                                "message",
                                "locations",
                            ],
                            "properties": {
                                "level": {"enum": ["error", "warning"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestReportFormats:
    def _violations(self):
        return analyze_source(
            "import random\n", module="repro.exec.snippet", path="x.py"
        )

    def test_json_golden(self):
        payload = violations_to_json(self._violations(), file_count=1)
        assert payload == {
            "files_analyzed": 1,
            "violations": [
                {
                    "rule": "no-stdlib-random",
                    "path": "x.py",
                    "line": 1,
                    "severity": "error",
                    "message": "stdlib random imported in a deterministic module",
                    "hint": "use repro.common.rng.make_rng instead",
                }
            ],
        }

    def test_sarif_validates_against_schema_shape(self):
        jsonschema = pytest.importorskip("jsonschema")

        log = violations_to_sarif(self._violations(), ALL_CHECKERS)
        jsonschema.validate(log, SARIF_SHAPE_SCHEMA)
        driver_rules = {
            rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]
        }
        for result in log["runs"][0]["results"]:
            assert result["ruleId"] in driver_rules

    def test_sarif_levels_follow_severity(self):
        violations = [
            Violation("no-wall-clock", "x.py", 1, "advisory", severity="warning"),
            *self._violations(),
        ]
        log = violations_to_sarif(violations, ALL_CHECKERS)
        assert [r["level"] for r in log["runs"][0]["results"]] == ["warning", "error"]

    def test_rules_listing_covers_every_rule(self):
        listing = render_rules(ALL_CHECKERS)
        for rule in ALL_RULES:
            assert rule in listing


class TestCLIFormats:
    def _run(self, tmp_path, *extra):
        # unseeded-rng fires regardless of module scope, so the fixture
        # file needs no repro package context.
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\nrng = np.random.default_rng()\n",
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad), *extra],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )

    def test_sarif_output_file_and_timing_line(self, tmp_path):
        import json

        out = tmp_path / "analysis.sarif"
        proc = self._run(tmp_path, "--format", "sarif", "--out", str(out))
        assert proc.returncode == 1
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert "repro.analysis:" in proc.stderr and "gating" in proc.stderr

    def test_rules_listing_mode(self, tmp_path):
        proc = self._run(tmp_path, "--rules")
        assert proc.returncode == 0
        assert "shmem-attached-write" in proc.stdout
        # Epoch discipline and delta completeness hold by construction now.
        assert "epoch-discipline" not in proc.stdout
        assert "delta-completeness" not in proc.stdout
