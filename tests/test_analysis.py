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
    def test_stdlib_random_fires_in_scope(self):
        violations = analyze_source("import random\n", module="repro.exec.snippet")
        assert rules_of(violations) == {"no-stdlib-random"}

    def test_stdlib_random_allowed_out_of_scope(self):
        assert analyze_source("import random\n", module="repro.workloads.gen") == []

    def test_global_numpy_rng_fires(self):
        violations = analyze_source(
            "import numpy as np\n\n\ndef f(x):\n    np.random.shuffle(x)\n",
            module="repro.exec.snippet",
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
        assert rules_of(analyze_source(text, module="repro.exec.snippet")) == {
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
# the report: a rules listing, text findings, an exit code
# --------------------------------------------------------------------- #
class TestReportFormats:
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

    def test_text_findings_exit_code_and_timing_line(self, tmp_path):
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "bad.py:3: [unseeded-rng]" in proc.stdout
        assert "1 violation(s) across 1 file(s)" in proc.stdout
        assert "repro.analysis: 1 file(s) in" in proc.stderr

    def test_rules_listing_mode(self, tmp_path):
        proc = self._run(tmp_path, "--rules")
        assert proc.returncode == 0
        assert "catalog-transaction" in proc.stdout
        # Epoch discipline, delta completeness, read-only attached views and
        # the task hand-off hold by construction now.
        for deleted in (
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
