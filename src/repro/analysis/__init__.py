"""Static analysis for the one repro invariant the tests cannot catch.

One checker enforces what neither the type system, the data structures
nor the configuration matrix (``tests/test_matrix.py``) can: the
fingerprinted layers read no wall clock and iterate no set in an unstable
order (rules ``no-wall-clock``, ``unsorted-set-iter``).  Each rule looks at
one file at a time.  Seeding either bug leaves every tier-1 test green (see
EXPERIMENTS.md's seeded-bug table): a clock read breaking LPT ties follows
task order within one process, and an int or string set iterates the same
way in every session of one process.

Run ``python -m repro.analysis [paths...]`` (defaults to the installed
``repro`` package tree; ``--rules`` lists every rule) or call
:func:`analyze_paths` / :func:`analyze_source` programmatically.
Suppress a finding with a justified ``# repro: allow[rule-id]`` comment on
or above its line; ``# repro: allow[a, b]`` covers several rules at once.

Everything else holds by construction and is not checked here: epoch
discipline and change-descriptor completeness in
:meth:`repro.storage.table.StoredTable.mutation`; worker-side writes to
shared blocks are impossible because attached views are built over a
read-only buffer (:mod:`repro.storage.shared_memory`); "task work carries
ids, pins and flat arrays, never live storage objects" is a property of
what pickles across the worker queues, tested on real streams in
``tests/test_exec.py``; a catalog write outside ``transaction()`` never
reaches disk (:mod:`repro.storage.persist.catalog`); and a cached overlap
matrix is read-only (:mod:`repro.join.hyperjoin`).
"""

from __future__ import annotations

from pathlib import Path

from . import determinism
from .framework import (
    AnalysisContext,
    Checker,
    SourceFile,
    Violation,
    analyze_files,
    collect_files,
)

ALL_CHECKERS: tuple[Checker, ...] = (determinism.CHECKER,)

ALL_RULES: frozenset[str] = frozenset(
    rule for checker in ALL_CHECKERS for rule in checker.rules
)


def analyze_paths(
    paths: list[Path], rules: frozenset[str] | None = None
) -> tuple[list[Violation], int]:
    """Analyze files/directories; return (violations, files analyzed)."""
    files = [SourceFile.load(path) for path in collect_files(paths)]
    return analyze_files(files, ALL_CHECKERS, rules=rules), len(files)


def analyze_source(
    text: str,
    *,
    module: str = "repro._snippet",
    path: str = "<snippet>",
    rules: frozenset[str] | None = None,
) -> list[Violation]:
    """Analyze one in-memory snippet (test fixtures)."""
    source = SourceFile.from_text(text, path=path, module=module)
    return analyze_files([source], ALL_CHECKERS, rules=rules)


__all__ = [
    "ALL_CHECKERS",
    "ALL_RULES",
    "AnalysisContext",
    "Checker",
    "SourceFile",
    "Violation",
    "analyze_files",
    "analyze_paths",
    "analyze_source",
]
