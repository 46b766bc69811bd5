"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exits 1 when any checker reports an unsuppressed finding — this is the
same gate CI's ``static-analysis`` job runs.  The report is text on stdout,
one line per finding; wall time goes to stderr so CI job logs record
checker cost.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Iterable

from . import ALL_CHECKERS, ALL_RULES, analyze_paths
from .framework import Checker


def render_rules(checkers: Iterable[Checker]) -> str:
    """The ``--rules`` listing: every rule id with its one-line contract."""
    lines: list[str] = []
    for checker in checkers:
        lines.append(f"{checker.name}:")
        for rule in checker.rules:
            description = checker.descriptions.get(rule, "")
            if description:
                lines.append(f"  {rule}: {description}")
            else:
                lines.append(f"  {rule}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repro invariant checkers over source paths.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--rules",
        nargs="?",
        const="",
        default=None,
        help=(
            "comma-separated rule ids to run (default: all); with no value, "
            "list every rule and its contract, then exit"
        ),
    )
    args = parser.parse_args(argv)

    if args.rules == "":
        print(render_rules(ALL_CHECKERS))
        return 0
    rules: frozenset[str] | None = None
    if args.rules is not None:
        rules = frozenset(
            rule.strip() for rule in args.rules.split(",") if rule.strip()
        )
        unknown = rules - ALL_RULES
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")

    paths = list(args.paths) or [Path(__file__).resolve().parents[1]]
    started = time.perf_counter()
    violations, file_count = analyze_paths(paths, rules=rules)
    elapsed = time.perf_counter() - started

    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} violation(s) across {file_count} file(s)")
    else:
        print(f"OK: {file_count} file(s), 0 violations")
    print(f"repro.analysis: {file_count} file(s) in {elapsed:.2f}s", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
