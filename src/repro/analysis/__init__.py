"""Static analysis for the two repro invariants that need it.

Two checkers enforce contracts that neither the type system nor the data
structures can.  Each rule looks at one file at a time:

* **determinism** — the fingerprinted layers use no stdlib/global
  randomness, no wall clock, and no unstable set iteration (rules
  ``no-stdlib-random``, ``no-global-numpy-rng``, ``no-wall-clock``,
  ``unsorted-set-iter``, ``unseeded-rng``).
* **persist** — catalog mutations in ``repro.storage.persist`` go
  through the transactional write path: no bare ``execute`` outside a
  ``transaction()`` block (rule ``catalog-transaction``).

Run ``python -m repro.analysis [paths...]`` (defaults to the installed
``repro`` package tree; ``--rules`` lists every rule) or call
:func:`analyze_paths` / :func:`analyze_source` programmatically.
Suppress a finding with a justified ``# repro: allow[rule-id]`` comment on
or above its line; ``# repro: allow[a, b]`` covers several rules at once.

Everything else holds by construction and is not checked here: epoch
discipline and change-descriptor completeness in
:meth:`repro.storage.table.StoredTable.mutation`; worker-side writes to
shared blocks are impossible because attached views are built over a
read-only buffer (:mod:`repro.storage.shared_memory`); and "task work
carries ids, pins and flat arrays, never live storage objects" is a
property of what pickles across the worker queues, tested on real
streams in ``tests/test_exec.py``.
"""

from __future__ import annotations

from pathlib import Path

from . import determinism, persist
from .framework import (
    AnalysisContext,
    Checker,
    SourceFile,
    Violation,
    analyze_files,
    collect_files,
)

ALL_CHECKERS: tuple[Checker, ...] = (
    determinism.CHECKER,
    persist.CHECKER,
)

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
