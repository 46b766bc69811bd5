"""Whole-program static analysis for the repro codebase's invariants.

Five checkers enforce contracts that the type system cannot.  They share a
project-wide call graph (:class:`~repro.analysis.framework.ProjectGraph`)
that resolves calls across files, so the rules reason interprocedurally
rather than one file at a time:

* **determinism** — the fingerprinted layers use no stdlib/global
  randomness, no wall clock, and no unstable set iteration (rules
  ``no-stdlib-random``, ``no-global-numpy-rng``, ``no-wall-clock``,
  ``unsorted-set-iter``, ``unseeded-rng``).
* **cache-keys** — ``@epoch_keyed`` functions read only mutable state
  their key covers (rules ``cache-key-read``, ``cache-key-registration``).
* **task-purity** — compiled tasks carry ids, never live storage objects
  (rules ``task-purity-field``, ``task-purity-capture``).
* **shmem** — code reachable from worker-process entry points never
  writes attached shared-memory arrays, never touches parent-only state,
  and cross-process payloads are frozen dataclasses (rules
  ``shmem-attached-write``, ``shmem-parent-state``,
  ``shmem-payload-frozen``).
* **persist** — catalog mutations in ``repro.storage.persist`` go
  through the transactional write path: no bare ``execute`` outside a
  ``transaction()`` block (rule ``catalog-transaction``).

Run ``python -m repro.analysis [paths...]`` (defaults to the installed
``repro`` package tree; ``--rules`` lists every rule, ``--format
json|sarif`` emits machine-readable reports) or call
:func:`analyze_paths` / :func:`analyze_source` programmatically.  Suppress a finding with a
justified ``# repro: allow[rule-id]`` comment on or above its line;
``# repro: allow[a, b]`` covers several rules at once.  The runtime twins
of these contracts live in :mod:`repro.common.sanitize`
(``REPRO_SANITIZE=1``).  Epoch discipline and change-descriptor
completeness are not checked here: they hold by construction in
:meth:`repro.storage.table.StoredTable.mutation`.
"""

from __future__ import annotations

from pathlib import Path

from . import cache_keys, determinism, persist, purity, shmem
from .framework import (
    AnalysisContext,
    Checker,
    ProjectGraph,
    SourceFile,
    Violation,
    analyze_files,
    collect_files,
)

ALL_CHECKERS: tuple[Checker, ...] = (
    determinism.CHECKER,
    cache_keys.CHECKER,
    purity.CHECKER,
    shmem.CHECKER,
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
    "ProjectGraph",
    "SourceFile",
    "Violation",
    "analyze_files",
    "analyze_paths",
    "analyze_source",
]
