"""Determinism checker.

The tests and the layered benchmark fingerprint query results and
schedules, so the executing/adapting/planning layers (``repro.exec``,
``repro.adaptive``, ``repro.join``) must be bit-stable run to run.  Rules:

``no-stdlib-random``
    ``random`` (the stdlib module) is banned in scoped modules; the only
    sanctioned randomness source is ``repro.common.rng.make_rng``.

``no-global-numpy-rng``
    Calls through the module-level ``np.random.*`` API are banned in
    scoped modules (annotations like ``np.random.Generator`` are fine —
    only calls are flagged).

``no-wall-clock``
    ``time.time`` / ``time.perf_counter`` / ``time.monotonic`` /
    ``time.process_time`` are banned in scoped modules; wall-clock
    timing belongs to the session harness (``repro.api``), which is out
    of scope.  Suppress with justification where a measured wall time is
    reported but never feeds a decision or a fingerprint.

``unsorted-set-iter``
    Iterating a ``set`` in a ``for`` statement, a list/generator
    comprehension, or a ``list(...)``/``tuple(...)`` call produces an
    unstable order.  Wrap the set in ``sorted(...)`` — iteration that
    feeds an order-free consumer (``sum``, ``min``, ``set``, another set
    comprehension, ...) is allowed.  Plain dict iteration is *not*
    flagged: dicts are insertion-ordered, so determinism reduces to the
    order their keys were inserted, which these rules already police.

``unseeded-rng``
    Applies everywhere (including benchmarks and examples): argless
    ``default_rng()`` and the legacy global draws (``np.random.rand``,
    ``np.random.seed``, ...) are banned; derive generators from
    ``make_rng(seed)`` so runs are reproducible.

Set-ness is inferred per function from literals, ``set()`` calls, set
annotations, and calls to functions whose return annotation is
``set[...]`` or ``dict[..., set[...]]`` (the ``dict_set`` shape
propagates through ``.items()`` / ``.values()`` unpacking and
subscripts).  The inference is deliberately shallow — it exists to catch
the real patterns in this codebase, not to be a type checker.
"""

from __future__ import annotations

import ast

from .framework import (
    AnalysisContext,
    Checker,
    FunctionNode,
    SourceFile,
    Violation,
    dotted_name,
)

RULE_STDLIB_RANDOM = "no-stdlib-random"
RULE_GLOBAL_NUMPY = "no-global-numpy-rng"
RULE_WALL_CLOCK = "no-wall-clock"
RULE_SET_ITER = "unsorted-set-iter"
RULE_UNSEEDED = "unseeded-rng"

#: Modules whose behaviour is fingerprinted and must be deterministic.
#: ``repro.parallel`` is in scope because its results must stay
#: bit-identical to the in-process engine; its one sanctioned wall-clock
#: helper (reporting-only timings) carries a ``# repro: allow``.
#: ``repro.storage.persist`` is in scope because a checkpoint/restore
#: round trip must reproduce bit-identical fingerprints — any hidden
#: randomness or unstable iteration in the spill/restore paths would
#: diverge the reopened session from the original.
SCOPE_PREFIXES = (
    "repro.exec",
    "repro.adaptive",
    "repro.join",
    "repro.parallel",
    "repro.storage.persist",
)

WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.perf_counter", "time.monotonic", "time.process_time"}
)
WALL_CLOCK_NAMES = frozenset({"time", "perf_counter", "monotonic", "process_time"})

#: Consumers whose result does not depend on iteration order.
ORDER_FREE_CONSUMERS = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "set", "frozenset", "len"}
)

#: Sequence builders that *do* freeze iteration order.
ORDER_SENSITIVE_BUILDERS = frozenset({"list", "tuple"})

#: Legacy module-level numpy draws (non-exhaustive, the common ones).
LEGACY_NUMPY_DRAWS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "random",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
    }
)

_SET = "set"
_DICT_OF_SETS = "dict_set"


def _in_scope(module: str) -> bool:
    return module.startswith(SCOPE_PREFIXES)


# --------------------------------------------------------------------- #
# Set-type inference
# --------------------------------------------------------------------- #
def _annotation_kind(node: ast.expr) -> str | None:
    """Classify an annotation as ``set`` / ``dict_set`` / other."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return _SET if node.id in {"set", "frozenset", "Set", "FrozenSet"} else None
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in {"set", "frozenset", "Set", "FrozenSet"}:
                return _SET
            if base.id in {"dict", "Dict", "defaultdict", "DefaultDict", "Mapping"}:
                value_slice = node.slice
                if isinstance(value_slice, ast.Tuple) and len(value_slice.elts) == 2:
                    if _annotation_kind(value_slice.elts[1]) == _SET:
                        return _DICT_OF_SETS
    return None


class _SetEnv:
    """Name -> inferred kind, for one function (or the module top level)."""

    def __init__(self, return_annotations: dict[str, ast.expr]) -> None:
        self._returns = return_annotations
        self.kinds: dict[str, str] = {}

    def expr_kind(self, node: ast.expr) -> str | None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return _SET
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self.expr_kind(node.left)
            right = self.expr_kind(node.right)
            if _SET in (left, right):
                return _SET
        if isinstance(node, ast.Subscript):
            if self.expr_kind(node.value) == _DICT_OF_SETS:
                return _SET
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in {"set", "frozenset"}:
                    return _SET
                annotation = self._returns.get(func.id)
                if annotation is not None:
                    return _annotation_kind(annotation)
            if isinstance(func, ast.Attribute):
                if func.attr == "copy":
                    return self.expr_kind(func.value)
                annotation = self._returns.get(func.attr)
                if annotation is not None:
                    return _annotation_kind(annotation)
        return None

    def learn_assign(self, target: ast.expr, kind: str | None) -> None:
        if kind is not None and isinstance(target, ast.Name):
            self.kinds[target.id] = kind

    def learn_for_target(self, target: ast.expr, iter_expr: ast.expr) -> None:
        """Propagate dict-of-sets element kinds into loop targets."""
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and self.expr_kind(iter_expr.func.value) == _DICT_OF_SETS
        ):
            method = iter_expr.func.attr
            if (
                method == "items"
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
                and isinstance(target.elts[1], ast.Name)
            ):
                self.kinds[target.elts[1].id] = _SET
            elif method == "values" and isinstance(target, ast.Name):
                self.kinds[target.id] = _SET

    def seed_scope(self, func: FunctionNode | None) -> None:
        if func is None:
            return
        args = list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        )
        for arg in args:
            if arg.annotation is not None:
                kind = _annotation_kind(arg.annotation)
                if kind is not None:
                    self.kinds[arg.arg] = kind


def _scope_nodes(scope: ast.AST) -> list[ast.AST]:
    """All nodes of a scope in document order, excluding nested scopes."""
    nodes: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            nodes.append(child)
            visit(child)

    visit(scope)
    return nodes


def _scope_statements(scope: ast.AST) -> list[ast.stmt]:
    """Statements belonging to a scope, excluding nested scope bodies."""
    return [node for node in _scope_nodes(scope) if isinstance(node, ast.stmt)]


def _build_env(
    scope: ast.AST, context: AnalysisContext
) -> _SetEnv:
    env = _SetEnv(context.return_annotations)
    env.seed_scope(
        scope if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
    )
    for stmt in _scope_statements(scope):
        if isinstance(stmt, ast.Assign):
            kind = env.expr_kind(stmt.value)
            for target in stmt.targets:
                env.learn_assign(target, kind)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            kind = _annotation_kind(stmt.annotation)
            if kind is None and stmt.value is not None:
                kind = env.expr_kind(stmt.value)
            env.learn_assign(stmt.target, kind)
        elif isinstance(stmt, ast.AugAssign):
            kind = env.expr_kind(stmt.value)
            env.learn_assign(stmt.target, kind)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            env.learn_for_target(stmt.target, stmt.iter)
    return env


def _iter_scopes(tree: ast.Module) -> list[ast.AST]:
    scopes: list[ast.AST] = [tree]
    scopes.extend(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return scopes


def _is_sorted_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _check_set_iteration(
    source: SourceFile, context: AnalysisContext
) -> list[Violation]:
    violations: list[Violation] = []
    parents: dict[int, ast.AST] = {}
    for parent in ast.walk(source.tree):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent

    def order_free_context(node: ast.expr) -> bool:
        """Whether ``node``'s value flows into an order-free consumer."""
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call) and node in parent.args:
            name = dotted_name(parent.func)
            if name is not None and name.split(".")[-1] in ORDER_FREE_CONSUMERS:
                return True
        return False

    for scope in _iter_scopes(source.tree):
        env = _build_env(scope, context)
        for node in _scope_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if not _is_sorted_call(node.iter) and env.expr_kind(node.iter) == _SET:
                    violations.append(
                        Violation(
                            rule=RULE_SET_ITER,
                            path=source.path,
                            line=node.iter.lineno,
                            message="for-loop iterates a set in unstable order",
                            hint="wrap the iterable in sorted(...)",
                        )
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if order_free_context(node):
                    continue
                for generator in node.generators:
                    if _is_sorted_call(generator.iter):
                        continue
                    if env.expr_kind(generator.iter) == _SET:
                        violations.append(
                            Violation(
                                rule=RULE_SET_ITER,
                                path=source.path,
                                line=generator.iter.lineno,
                                message=(
                                    "comprehension iterates a set into an "
                                    "order-sensitive sequence"
                                ),
                                hint="wrap the iterable in sorted(...)",
                            )
                        )
            elif isinstance(node, ast.Call):
                func_name = dotted_name(node.func)
                if (
                    func_name in ORDER_SENSITIVE_BUILDERS
                    and node.args
                    and env.expr_kind(node.args[0]) == _SET
                ):
                    violations.append(
                        Violation(
                            rule=RULE_SET_ITER,
                            path=source.path,
                            line=node.lineno,
                            message=(
                                f"{func_name}(...) freezes a set's unstable "
                                "iteration order"
                            ),
                            hint="use sorted(...) instead",
                        )
                    )
    return violations


def _check_scoped_calls(source: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    from_time_names: set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    violations.append(
                        Violation(
                            rule=RULE_STDLIB_RANDOM,
                            path=source.path,
                            line=node.lineno,
                            message="stdlib random imported in a deterministic module",
                            hint="use repro.common.rng.make_rng instead",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                violations.append(
                    Violation(
                        rule=RULE_STDLIB_RANDOM,
                        path=source.path,
                        line=node.lineno,
                        message="stdlib random imported in a deterministic module",
                        hint="use repro.common.rng.make_rng instead",
                    )
                )
            elif node.module == "time":
                imported = {alias.asname or alias.name for alias in node.names}
                if imported & WALL_CLOCK_NAMES:
                    from_time_names.update(imported & WALL_CLOCK_NAMES)
                    violations.append(
                        Violation(
                            rule=RULE_WALL_CLOCK,
                            path=source.path,
                            line=node.lineno,
                            message="wall-clock import in a deterministic module",
                            hint="timing belongs to the repro.api session harness",
                        )
                    )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.startswith(("random.",)):
                violations.append(
                    Violation(
                        rule=RULE_STDLIB_RANDOM,
                        path=source.path,
                        line=node.lineno,
                        message=f"{name}() in a deterministic module",
                        hint="use repro.common.rng.make_rng instead",
                    )
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                violations.append(
                    Violation(
                        rule=RULE_GLOBAL_NUMPY,
                        path=source.path,
                        line=node.lineno,
                        message=f"{name}() uses the global numpy RNG",
                        hint="thread a Generator from repro.common.rng.make_rng",
                    )
                )
            elif name in WALL_CLOCK_CALLS or name in from_time_names:
                violations.append(
                    Violation(
                        rule=RULE_WALL_CLOCK,
                        path=source.path,
                        line=node.lineno,
                        message=f"{name}() reads the wall clock in a deterministic module",
                        hint="timing belongs to the repro.api session harness",
                    )
                )
    return violations


def _check_unseeded(source: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        leaf = name.split(".")[-1]
        if leaf == "default_rng" and not node.args and not node.keywords:
            violations.append(
                Violation(
                    rule=RULE_UNSEEDED,
                    path=source.path,
                    line=node.lineno,
                    message="default_rng() without a seed is irreproducible",
                    hint="pass an explicit seed, or use repro.common.rng.make_rng",
                )
            )
        elif (
            name.startswith(("np.random.", "numpy.random."))
            and leaf in LEGACY_NUMPY_DRAWS
        ):
            violations.append(
                Violation(
                    rule=RULE_UNSEEDED,
                    path=source.path,
                    line=node.lineno,
                    message=f"{name}() draws from the unseeded global numpy RNG",
                    hint="use a Generator from repro.common.rng.make_rng(seed)",
                )
            )
    return violations


def check(source: SourceFile, context: AnalysisContext) -> list[Violation]:
    violations = _check_unseeded(source)
    if _in_scope(source.module):
        violations.extend(_check_scoped_calls(source))
        violations.extend(_check_set_iteration(source, context))
    return violations


CHECKER = Checker(
    name="determinism",
    rules=(
        RULE_STDLIB_RANDOM,
        RULE_GLOBAL_NUMPY,
        RULE_WALL_CLOCK,
        RULE_SET_ITER,
        RULE_UNSEEDED,
    ),
    check=check,
    descriptions={
        RULE_STDLIB_RANDOM: (
            "fingerprinted layers never use the stdlib random module"
        ),
        RULE_GLOBAL_NUMPY: (
            "fingerprinted layers never use numpy's global RNG state"
        ),
        RULE_WALL_CLOCK: (
            "fingerprinted layers never read the wall clock; timing goes "
            "through the sanctioned repro.common.clock helper"
        ),
        RULE_SET_ITER: (
            "no iteration over sets/frozensets without sorted() in "
            "fingerprinted layers"
        ),
        RULE_UNSEEDED: (
            "every numpy Generator is constructed from an explicit seed"
        ),
    },
)
