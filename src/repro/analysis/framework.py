"""Shared machinery for the ``repro.analysis`` static checkers.

The checkers are plain functions over parsed source files; this module
owns everything they share so each checker file is only its rule logic:

* :class:`Violation` — one finding, with file:line, severity and a fix
  hint.
* :class:`SourceFile` — a parsed file plus its suppression comments.
* :class:`ProjectGraph` — the whole-program function index and resolved
  call graph (imports, ``self.method()``, annotation-typed receivers),
  with reachability on top.
* :class:`AnalysisContext` — cross-file facts gathered in one pre-pass
  (``@epoch_keyed`` registrations, return annotations, the project
  graph) plus a per-run :meth:`cache
  <AnalysisContext.cache>` so whole-program passes compute their
  summaries once instead of per file.
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
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, cast

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
    #: ``"error"`` findings gate CI; ``"warning"`` findings are advisory.
    severity: str = "error"

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


def iter_functions(
    tree: ast.AST, _class: str | None = None
) -> Iterator[tuple[FunctionNode, str | None]]:
    """Yield every function with the name of its innermost enclosing class.

    Nested functions are yielded too (with the class of the method that
    contains them); functions inside nested classes report the nested
    class.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _class
            yield from iter_functions(node, _class)
        elif isinstance(node, ast.ClassDef):
            yield from iter_functions(node, node.name)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            yield from iter_functions(node, _class)


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


def epoch_keyed_decorator(func: FunctionNode) -> tuple[str, ...] | None:
    """The literal ``reads=(...)`` of an ``@epoch_keyed`` decorator, if any.

    Returns ``None`` when the function is not decorated; an unparseable
    ``reads`` argument yields ``()`` (treat as "declares nothing").
    """
    for decorator in func.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name is None or name.split(".")[-1] != "epoch_keyed":
            continue
        for keyword in decorator.keywords:
            if keyword.arg != "reads":
                continue
            value = keyword.value
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                reads = []
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        reads.append(element.value)
                return tuple(reads)
            return ()
        return ()
    return None


#: Identity of one function in the project: ``(file path, qualname)``.
#: Module names can collide across analyzed trees (two ``conftest.py``),
#: file paths cannot.
FunctionKey = tuple[str, str]


def _annotation_class(annotation: ast.expr | None) -> str | None:
    """The class name an annotation pins its value to, if recoverable.

    Handles ``Foo``, ``pkg.Foo``, the string form ``"Foo"`` and the
    optional form ``Foo | None``; everything else (generics, unions of
    two real types) returns ``None``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split("|")[0].strip().split(".")[-1] or None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_class(annotation.left)
        right = _annotation_class(annotation.right)
        if left == "None":
            return right
        if right == "None":
            return left
        return None
    name = dotted_name(annotation)
    if name is not None:
        return name.split(".")[-1]
    return None


@dataclass
class FunctionInfo:
    """One function (or method) in the project graph."""

    key: FunctionKey
    module: str
    path: str
    qualname: str
    name: str
    class_name: str | None
    node: FunctionNode

    def annotation_of(self, param: str) -> str | None:
        """Class name a parameter's annotation pins it to, if any."""
        args = self.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg == param:
                return _annotation_class(arg.annotation)
        return None


def map_call_arguments(call: ast.Call, callee: "FunctionInfo") -> dict[str, ast.expr]:
    """Map callee parameter names to argument expressions at a call site.

    Bound-method calls (``obj.m(...)`` against a callee whose first
    parameter is ``self``/``cls``) shift positional arguments by one;
    starred arguments are skipped.
    """
    args = callee.node.args
    params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    offset = 0
    if params and params[0] in {"self", "cls"} and isinstance(call.func, ast.Attribute):
        offset = 1
    mapping: dict[str, ast.expr] = {}
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        position = index + offset
        if position < len(params):
            mapping[params[position]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            mapping[keyword.arg] = keyword.value
    return mapping


_S = TypeVar("_S")


@dataclass
class ProjectGraph:
    """Whole-program function index with a resolved call graph.

    Call resolution is deliberately conservative: a call resolves to a
    project function only through an import binding, a module-level name,
    ``self``/``cls`` within a class, a receiver whose parameter
    annotation names a known class, or — as a last resort — a method
    name defined exactly once in the whole project.  Anything ambiguous
    resolves to nothing, so graph clients over-approximate by treating
    unresolved calls as opaque.
    """

    #: Every indexed function, keyed by ``(path, qualname)``.
    functions: dict[FunctionKey, FunctionInfo] = field(default_factory=dict)
    #: module -> qualname -> key (first definition wins).
    by_module: dict[str, dict[str, FunctionKey]] = field(default_factory=dict)
    #: class name -> method name -> key (first definition wins).
    class_methods: dict[str, dict[str, FunctionKey]] = field(default_factory=dict)
    #: bare function/method name -> every key defining it.
    by_name: dict[str, list[FunctionKey]] = field(default_factory=dict)
    #: module -> local name -> (target module, attr or None for modules).
    imports: dict[str, dict[str, tuple[str, str | None]]] = field(default_factory=dict)
    _callees: dict[FunctionKey, frozenset[FunctionKey]] = field(default_factory=dict)

    @classmethod
    def build(cls, files: list[SourceFile]) -> "ProjectGraph":
        graph = cls()
        for source in files:
            graph.imports.setdefault(source.module, {}).update(
                _import_bindings(source)
            )
            module_index = graph.by_module.setdefault(source.module, {})
            for func, class_name in iter_functions(source.tree):
                qualname = f"{class_name}.{func.name}" if class_name else func.name
                key: FunctionKey = (source.path, qualname)
                info = FunctionInfo(
                    key=key,
                    module=source.module,
                    path=source.path,
                    qualname=qualname,
                    name=func.name,
                    class_name=class_name,
                    node=func,
                )
                graph.functions.setdefault(key, info)
                module_index.setdefault(qualname, key)
                graph.by_name.setdefault(func.name, []).append(key)
                if class_name is not None:
                    graph.class_methods.setdefault(class_name, {}).setdefault(
                        func.name, key
                    )
        return graph

    # ------------------------------------------------------------------ #
    def resolve_call(self, call: ast.Call, info: FunctionInfo) -> FunctionKey | None:
        """The project function a call resolves to, or ``None``."""
        func = call.func
        module_index = self.by_module.get(info.module, {})
        bindings = self.imports.get(info.module, {})
        if isinstance(func, ast.Name):
            local = module_index.get(func.id)
            if local is not None:
                return local
            bound = bindings.get(func.id)
            if bound is not None:
                target_module, attr = bound
                if attr is not None:
                    return self.by_module.get(target_module, {}).get(attr)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id in {"self", "cls"} and info.class_name is not None:
                same_module = module_index.get(f"{info.class_name}.{attr}")
                if same_module is not None:
                    return same_module
                return self.class_methods.get(info.class_name, {}).get(attr)
            bound = bindings.get(receiver.id)
            if bound is not None:
                target_module, sub = bound
                if sub is not None:
                    target_module = f"{target_module}.{sub}"
                resolved = self.by_module.get(target_module, {}).get(attr)
                if resolved is not None:
                    return resolved
            annotated = info.annotation_of(receiver.id)
            if annotated is not None:
                resolved = self.class_methods.get(annotated, {}).get(attr)
                if resolved is not None:
                    return resolved
        candidates = self.by_name.get(attr, [])
        if len(candidates) == 1:
            candidate = self.functions[candidates[0]]
            if candidate.class_name is not None:
                return candidate.key
        return None

    def callees(self, key: FunctionKey) -> frozenset[FunctionKey]:
        """Resolved callees of one function (cached)."""
        cached = self._callees.get(key)
        if cached is not None:
            return cached
        info = self.functions.get(key)
        resolved: set[FunctionKey] = set()
        if info is not None:
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(node, info)
                    if callee is not None:
                        resolved.add(callee)
        result = frozenset(resolved)
        self._callees[key] = result
        return result

    def reachable(self, roots: Iterable[FunctionKey]) -> set[FunctionKey]:
        """Transitive closure of :meth:`callees` from ``roots``."""
        seen: set[FunctionKey] = set()
        stack = [key for key in roots if key in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.callees(key) - seen)
        return seen


def _import_bindings(source: SourceFile) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, attr) bindings from a module's imports."""
    bindings: dict[str, tuple[str, str | None]] = {}
    is_package = source.path.endswith("__init__.py")
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = (root, None)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parts = source.module.split(".")
                drop = node.level - 1 if is_package else node.level
                if drop > len(parts):
                    continue
                prefix = parts[: len(parts) - drop]
                if not prefix:
                    continue
                base = ".".join(prefix + ([node.module] if node.module else []))
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = (base, alias.name)
    return bindings


@dataclass
class AnalysisContext:
    """Cross-file facts shared by all checkers, built in one pre-pass."""

    files: list[SourceFile] = field(default_factory=list)
    #: ``(module, qualname) -> declared reads`` for ``@epoch_keyed`` functions.
    epoch_keyed: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    #: Function name -> return annotation node (last definition wins).
    return_annotations: dict[str, ast.expr] = field(default_factory=dict)
    #: Whole-program call graph over ``files``.
    graph: ProjectGraph = field(default_factory=ProjectGraph)
    _cache: dict[str, object] = field(default_factory=dict)

    def cache(self, key: str, build: Callable[[], _S]) -> _S:
        """Compute-once storage for whole-program summaries.

        The first checker to ask under ``key`` pays for ``build``; every
        later per-file ``check`` call reuses the result, which is what
        keeps whole-program passes from re-walking the project once per
        analyzed file.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return cast(_S, self._cache[key])

    @classmethod
    def build(cls, files: list[SourceFile]) -> "AnalysisContext":
        epoch_keyed: dict[tuple[str, str], tuple[str, ...]] = {}
        returns: dict[str, ast.expr] = {}
        for source in files:
            for func, class_name in iter_functions(source.tree):
                reads = epoch_keyed_decorator(func)
                if reads is not None:
                    qualname = f"{class_name}.{func.name}" if class_name else func.name
                    epoch_keyed[(source.module, qualname)] = reads
                if func.returns is not None:
                    returns[func.name] = func.returns
        return cls(
            files=files,
            epoch_keyed=epoch_keyed,
            return_annotations=returns,
            graph=ProjectGraph.build(files),
        )


CheckFunction = Callable[[SourceFile, AnalysisContext], list[Violation]]


@dataclass(frozen=True)
class Checker:
    """A named checker: rule ids plus the function that applies them."""

    name: str
    rules: tuple[str, ...]
    check: CheckFunction
    #: rule id -> one-line description, surfaced by ``--rules`` and SARIF.
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
