"""Report rendering: text, stable JSON and SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from .framework import Checker, Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def violations_to_json(
    violations: Sequence[Violation], *, file_count: int
) -> dict[str, Any]:
    """Stable machine-readable form: one object per finding."""
    return {
        "files_analyzed": file_count,
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "severity": violation.severity,
                "message": violation.message,
                "hint": violation.hint,
            }
            for violation in violations
        ],
    }


def _sarif_rules(checkers: Iterable[Checker]) -> list[dict[str, Any]]:
    rules: list[dict[str, Any]] = []
    for checker in checkers:
        for rule in checker.rules:
            descriptor: dict[str, Any] = {"id": rule}
            description = checker.descriptions.get(rule)
            if description:
                descriptor["shortDescription"] = {"text": description}
            rules.append(descriptor)
    return rules


def violations_to_sarif(
    violations: Sequence[Violation], checkers: Iterable[Checker]
) -> dict[str, Any]:
    """Minimal SARIF 2.1.0 log: one run, one result per finding."""
    results: list[dict[str, Any]] = []
    for violation in violations:
        message = violation.message
        if violation.hint:
            message = f"{message} ({violation.hint})"
        results.append(
            {
                "ruleId": violation.rule,
                "level": "error" if violation.severity == "error" else "warning",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": violation.path},
                            "region": {"startLine": violation.line},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "https://example.invalid/repro",
                        "rules": _sarif_rules(checkers),
                    }
                },
                "results": results,
            }
        ],
    }


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


def render_report(
    fmt: str,
    violations: Sequence[Violation],
    *,
    file_count: int,
    checkers: Iterable[Checker],
) -> str:
    """Render findings in ``text`` / ``json`` / ``sarif`` form."""
    if fmt == "json":
        return json.dumps(
            violations_to_json(violations, file_count=file_count), indent=2
        )
    if fmt == "sarif":
        return json.dumps(violations_to_sarif(violations, checkers), indent=2)
    lines = [violation.render() for violation in violations]
    if violations:
        lines.append(f"{len(violations)} violation(s) across {file_count} file(s)")
    else:
        lines.append(f"OK: {file_count} file(s), 0 violations")
    return "\n".join(lines)


__all__ = [
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "render_report",
    "render_rules",
    "violations_to_json",
    "violations_to_sarif",
]
