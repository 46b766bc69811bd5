"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exits 1 when any checker reports an unsuppressed *error* — this is the
same gate CI's ``static-analysis`` job runs.  Warnings are reported but do
not fail the build.

Output formats (``--format``): ``text`` (default, one line per finding),
``json`` (stable machine-readable), and ``sarif`` (SARIF 2.1.0, suitable
for CI artifact upload / code-scanning ingestion).  ``--out`` writes the
report to a file instead of stdout; wall time always goes to stderr so
CI job logs record checker cost without polluting parseable output.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import ALL_CHECKERS, ALL_RULES, analyze_paths
from .report import render_report, render_rules


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
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.rules == "":
        print(render_rules(ALL_CHECKERS))
        return 0
    if args.rules is not None:
        requested = frozenset(
            rule.strip() for rule in args.rules.split(",") if rule.strip()
        )
        unknown = requested - ALL_RULES
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")
        rules: frozenset[str] | None = requested
    else:
        rules = None

    paths = list(args.paths) or [Path(__file__).resolve().parents[1]]
    started = time.perf_counter()
    violations, file_count = analyze_paths(paths, rules=rules)
    elapsed = time.perf_counter() - started

    report = render_report(
        args.format, violations, file_count=file_count, checkers=ALL_CHECKERS
    )
    if args.out is not None:
        args.out.write_text(report + "\n", encoding="utf-8")
    else:
        print(report)

    gating = [violation for violation in violations if violation.severity == "error"]
    print(
        f"repro.analysis: {file_count} file(s) in {elapsed:.2f}s — "
        f"{len(gating)} gating, {len(violations) - len(gating)} warning(s)",
        file=sys.stderr,
    )
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
