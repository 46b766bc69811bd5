"""Shared machinery for the ``repro.analysis`` static checkers.

The checkers are plain functions over parsed source files; this module
owns everything they share so each checker file is only its rule logic:

* :class:`Violation` — one finding, with file:line and a fix hint.
* :class:`SourceFile` — a parsed file plus its suppression comments.
* :class:`AnalysisContext` — the one cross-file fact the rules use,
  gathered in a pre-pass: every function's return annotation (the
  determinism checker infers ``set``-typed call results from it).
* :class:`Checker` — name + rule ids + a check callable; the registry in
  ``repro.analysis.__init__`` is just a tuple of these.

Suppressions: a comment ``# repro: allow[rule-id]`` (comma-separated ids
allowed) silences those rules on its own line and on the following line,
so both trailing comments and a comment directly above the offending
statement work.  Suppressions are meant to carry a justification in the
surrounding comment text.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

#: Comment syntax that silences rules: ``# repro: allow[rule-a, rule-b]``.
SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")


@dataclass(frozen=True)
class Violation:
    """One finding of one rule at one source location."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""

    def render(self) -> str:
        """Human-readable one-line form, ``path:line: [rule] message``."""
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text = f"{text} ({self.hint})"
        return text


def _parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed by a comment on that line."""
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            rules = frozenset(
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            )
            if rules:
                line = token.start[0]
                suppressions[line] = suppressions.get(line, frozenset()) | rules
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        pass
    return suppressions


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    Looks for the last ``repro`` component and joins from there, so both
    ``src/repro/exec/tasks.py`` and an installed-layout path map to
    ``repro.exec.tasks``.  Files outside a ``repro`` tree keep their stem.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return parts[-1] if parts else "<unknown>"


@dataclass
class SourceFile:
    """A parsed source file plus the metadata checkers need."""

    path: str
    module: str
    text: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]

    @classmethod
    def from_text(
        cls, text: str, *, path: str = "<snippet>", module: str = "repro._snippet"
    ) -> "SourceFile":
        """Parse in-memory source (test fixtures, snippets)."""
        return cls(
            path=path,
            module=module,
            text=text,
            tree=ast.parse(text),
            suppressions=_parse_suppressions(text),
        )

    @classmethod
    def load(cls, file_path: Path) -> "SourceFile":
        """Parse a file from disk, deriving its module name from the path."""
        text = file_path.read_text(encoding="utf-8")
        return cls(
            path=str(file_path),
            module=module_name_for(file_path),
            text=text,
            tree=ast.parse(text, filename=str(file_path)),
            suppressions=_parse_suppressions(text),
        )


FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def iter_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Yield every function definition, nested ones included, in source order."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from iter_functions(node)
        elif isinstance(
            node, (ast.ClassDef, ast.If, ast.Try, ast.With, ast.For, ast.While)
        ):
            yield from iter_functions(node)


def dotted_name(node: ast.expr) -> str | None:
    """Return ``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class AnalysisContext:
    """Cross-file facts shared by all checkers, built in one pre-pass."""

    #: Function name -> return annotation node (last definition wins).
    return_annotations: dict[str, ast.expr] = field(default_factory=dict)

    @classmethod
    def build(cls, files: list[SourceFile]) -> "AnalysisContext":
        returns: dict[str, ast.expr] = {}
        for source in files:
            for func in iter_functions(source.tree):
                if func.returns is not None:
                    returns[func.name] = func.returns
        return cls(return_annotations=returns)


CheckFunction = Callable[[SourceFile, AnalysisContext], list[Violation]]


@dataclass(frozen=True)
class Checker:
    """A named checker: rule ids plus the function that applies them."""

    name: str
    rules: tuple[str, ...]
    check: CheckFunction
    #: rule id -> one-line description, surfaced by ``--rules``.
    descriptions: Mapping[str, str] = field(default_factory=dict)


def is_suppressed(violation: Violation, source: SourceFile) -> bool:
    """Whether a suppression comment covers ``violation``.

    A comment on line ``L`` covers violations on ``L`` (trailing comment)
    and ``L + 1`` (comment on its own line above the statement).
    """
    for line in (violation.line, violation.line - 1):
        if violation.rule in source.suppressions.get(line, frozenset()):
            return True
    return False


def analyze_files(
    files: list[SourceFile],
    checkers: Iterable[Checker],
    rules: frozenset[str] | None = None,
) -> list[Violation]:
    """Run ``checkers`` over ``files``, filter suppressions, sort findings."""
    context = AnalysisContext.build(files)
    violations: list[Violation] = []
    for source in files:
        for checker in checkers:
            if rules is not None and not (set(checker.rules) & rules):
                continue
            for violation in checker.check(source, context):
                if rules is not None and violation.rule not in rules:
                    continue
                if not is_suppressed(violation, source):
                    violations.append(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand directories to their ``*.py`` files, preserving order."""
    collected: list[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        else:
            collected.append(path)
    return collected
