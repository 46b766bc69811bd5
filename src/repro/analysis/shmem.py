"""Process-boundary race checker for the shared-memory transport.

The parallel backend pins consolidated blocks into
``multiprocessing.shared_memory`` segments; workers attach them and wrap
the bytes in zero-copy numpy views.  The segments are the *parent's*
blocks — a worker-side write corrupts partition state across the process
boundary with no exception anywhere.  Three rules, applied
interprocedurally to everything reachable from the worker entry points
(``_worker_main`` / ``_run_work`` in ``repro.parallel.pool``, ``run_task``
and the ``run_*`` kernels in ``repro.exec.kernels_tasks``, and the
``SharedSegmentCache`` / ``SharedBlockView`` consumers) via the project
call graph, so a helper called from a kernel is checked too:

``shmem-attached-write`` (error)
    Worker-reachable code must never write an attached array: no
    subscript stores or in-place operators on values derived from
    ``.columns`` / ``.column_parts()`` / ``get_blocks()`` /
    ``np.frombuffer``, no mutating ndarray methods (``fill``, ``sort``,
    ``put``, ...), and no ``.setflags(...)`` that could re-enable
    writes (``setflags(write=False)`` — the sanitizer's own hook — is
    allowed).  Taint flows through local assignments, loops and resolved
    calls (a tainted argument taints the callee's parameter).

``shmem-parent-state`` (error)
    Worker-reachable code must not touch parent-only state: no
    references to the pool/store/session types and no calls into the
    parent-side storage API (``pin_table``, ``peek_block``,
    ``create_block``, ``unlink``, ...).  Workers receive ids, pins and
    flat arrays; everything else stays on the parent side of the queue.

``shmem-payload-frozen`` (error)
    Payload classes crossing the queue (the ``purity`` checker's payload
    set) must be ``@dataclass(frozen=True)`` — a mutable payload invites
    parent-side mutation after submit, which the worker never observes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import (
    AnalysisContext,
    Checker,
    FunctionInfo,
    FunctionKey,
    SourceFile,
    Violation,
    dotted_name,
    map_call_arguments,
)
from .purity import PAYLOAD_CLASSES

RULE_WRITE = "shmem-attached-write"
RULE_PARENT = "shmem-parent-state"
RULE_FROZEN = "shmem-payload-frozen"

#: Attribute loads that yield attached arrays (or containers of them).
SOURCE_ATTRS = frozenset({"columns", "_columns"})
#: Method calls that yield attached arrays / views.
SOURCE_CALLS = frozenset({"column_parts", "get_blocks"})
#: Dict-view methods that pass taint through (``cols.values()[...]``).
PASS_THROUGH_CALLS = frozenset({"values", "items", "get", "copy"})
#: ndarray methods that mutate their receiver in place.
INPLACE_NDARRAY_METHODS = frozenset(
    {"fill", "sort", "partition", "resize", "itemset", "put", "byteswap"}
)
#: numpy module-level functions whose first argument is written in place.
INPLACE_NDARRAY_FUNCS = frozenset({"put", "copyto", "place", "putmask", "at"})

#: Types a worker must never reference (parent-side state).
PARENT_TYPES = frozenset(
    {
        "SharedBlockStore",
        "WorkerPool",
        "StoredTable",
        "Catalog",
        "Session",
        "DistributedFileSystem",
        "Cluster",
        "Optimizer",
        "Executor",
    }
)
#: Calls that only the parent side may make.
PARENT_CALLS = frozenset(
    {
        "unlink",
        "pin_table",
        "unpin_table",
        "peek_block",
        "create_block",
        "delete_block",
        "put_block",
        "submit",
    }
)

#: Worker entry points: (module, predicate on function name / class).
WORKER_CLASS_ROOTS = frozenset({"SharedSegmentCache", "SharedBlockView"})


def _walk_body(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements, skipping nested function/class definitions."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _is_root(info: FunctionInfo) -> bool:
    if info.class_name in WORKER_CLASS_ROOTS:
        return True
    if info.module == "repro.parallel.pool" and info.name in {
        "_worker_main",
        "_run_work",
    }:
        return True
    if info.module == "repro.exec.kernels_tasks" and info.name.startswith("run_"):
        return True
    return False


def _expr_tainted(expr: ast.expr, names: set[str]) -> bool:
    """Whether an expression yields an attached array or a container of them."""
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Attribute):
        if expr.attr in SOURCE_ATTRS:
            return True
        return _expr_tainted(expr.value, names)
    if isinstance(expr, ast.Subscript):
        return _expr_tainted(expr.value, names)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            if func.attr in SOURCE_CALLS:
                return True
            if func.attr in PASS_THROUGH_CALLS:
                return _expr_tainted(func.value, names)
            if func.attr == "frombuffer":
                return True
        elif isinstance(func, ast.Name) and func.id == "frombuffer":
            return True
        return False
    if isinstance(expr, ast.Starred):
        return _expr_tainted(expr.value, names)
    return False


def _local_taint(info: FunctionInfo, initial: set[str]) -> set[str]:
    """Propagate attached-ness through local names to a fixpoint."""
    names = set(initial)
    while True:
        added = False
        for node in _walk_body(info.node.body):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in names
                and _expr_tainted(node.value, names)
            ):
                names.add(node.targets[0].id)
                added = True
            elif isinstance(node, (ast.For, ast.AsyncFor)) and _expr_tainted(
                node.iter, names
            ):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        added = True
        if not added:
            return names


def _setflags_enables_write(call: ast.Call) -> bool:
    """True unless the call is exactly the sanctioned ``setflags(write=False)``."""
    if call.args:
        return True
    for keyword in call.keywords:
        if keyword.arg == "write":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is False:
                continue
            return True
        else:
            return True
    return False


def _check_function(
    info: FunctionInfo, tainted_params: frozenset[str]
) -> list[Violation]:
    violations: list[Violation] = []
    names = _local_taint(info, set(tainted_params))
    label = info.qualname

    def flag(rule: str, line: int, message: str, hint: str) -> None:
        violations.append(
            Violation(rule=rule, path=info.path, line=line, message=message, hint=hint)
        )

    for node in _walk_body(info.node.body):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = list(node.targets)
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            else:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Starred):
                    target = target.value
                hit = False
                if isinstance(target, ast.Subscript):
                    hit = _expr_tainted(target.value, names)
                elif isinstance(target, ast.Name) and isinstance(node, ast.AugAssign):
                    hit = target.id in names
                if hit:
                    flag(
                        RULE_WRITE,
                        node.lineno,
                        f"worker-side {label} writes an attached shared-memory "
                        "array",
                        "attached views are the parent's blocks; copy before "
                        "mutating (np.array(view)) or move the write parent-side",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = node.func.value
            if attr == "setflags" and _expr_tainted(receiver, names):
                if _setflags_enables_write(node):
                    flag(
                        RULE_WRITE,
                        node.lineno,
                        f"worker-side {label} re-enables writes on an attached "
                        "array via setflags",
                        "only setflags(write=False) is allowed worker-side",
                    )
            elif attr in INPLACE_NDARRAY_METHODS and _expr_tainted(receiver, names):
                flag(
                    RULE_WRITE,
                    node.lineno,
                    f"worker-side {label} calls in-place ndarray method "
                    f".{attr}() on an attached array",
                    "operate on a copy (np.array(view)) instead",
                )
            elif (
                attr in INPLACE_NDARRAY_FUNCS
                and node.args
                and _expr_tainted(node.args[0], names)
            ):
                name = dotted_name(node.func)
                if name is not None and name.split(".", 1)[0] in {"np", "numpy"}:
                    flag(
                        RULE_WRITE,
                        node.lineno,
                        f"worker-side {label} writes an attached array via "
                        f"numpy {name}",
                        "operate on a copy (np.array(view)) instead",
                    )
            if attr in PARENT_CALLS:
                flag(
                    RULE_PARENT,
                    node.lineno,
                    f"worker-side {label} calls parent-only API .{attr}()",
                    "workers receive ids/pins and attach segments; parent-side "
                    "storage calls must stay in the parent process",
                )
        if isinstance(node, ast.Name) and node.id in PARENT_TYPES:
            flag(
                RULE_PARENT,
                node.lineno,
                f"worker-side {label} references parent-only type {node.id}",
                "pass ids or pins across the process boundary instead",
            )
    return violations


def _worker_violations(context: AnalysisContext) -> dict[str, list[Violation]]:
    """path -> violations, over everything worker-reachable (cached)."""

    def build() -> dict[str, list[Violation]]:
        graph = context.graph
        taint: dict[FunctionKey, frozenset[str]] = {
            key: frozenset()
            for key, info in graph.functions.items()
            if _is_root(info)
        }
        while True:
            changed = False
            for key in list(taint):
                info = graph.functions[key]
                names = _local_taint(info, set(taint[key]))
                for node in _walk_body(info.node.body):
                    if not isinstance(node, ast.Call):
                        continue
                    callee_key = graph.resolve_call(node, info)
                    if callee_key is None or callee_key == key:
                        continue
                    callee = graph.functions[callee_key]
                    arg_map = map_call_arguments(node, callee)
                    tainted_params = frozenset(
                        param
                        for param, arg in arg_map.items()
                        if _expr_tainted(arg, names)
                    )
                    merged = taint.get(callee_key, frozenset()) | tainted_params
                    if taint.get(callee_key) != merged:
                        taint[callee_key] = merged
                        changed = True
            if not changed:
                break
        by_path: dict[str, list[Violation]] = {}
        for key, params in taint.items():
            info = graph.functions[key]
            for violation in _check_function(info, params):
                by_path.setdefault(violation.path, []).append(violation)
        return by_path

    return context.cache("shmem.worker-violations", build)


def _check_payload_frozen(source: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in PAYLOAD_CLASSES:
            continue
        frozen = False
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = dotted_name(decorator.func)
                if name is not None and name.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if keyword.arg == "frozen" and isinstance(
                            keyword.value, ast.Constant
                        ):
                            frozen = bool(keyword.value.value)
        if not frozen:
            violations.append(
                Violation(
                    rule=RULE_FROZEN,
                    path=source.path,
                    line=node.lineno,
                    message=(
                        f"payload class {node.name} must be @dataclass(frozen=True) "
                        "to cross the process boundary"
                    ),
                    hint="freeze it so submitted payloads cannot drift from what "
                    "the worker unpickled",
                )
            )
    return violations


def check(source: SourceFile, context: AnalysisContext) -> list[Violation]:
    violations = list(_worker_violations(context).get(source.path, ()))
    if source.module.startswith(("repro.exec", "repro.parallel")):
        violations.extend(_check_payload_frozen(source))
    return violations


CHECKER = Checker(
    name="shmem",
    rules=(RULE_WRITE, RULE_PARENT, RULE_FROZEN),
    check=check,
    descriptions={
        RULE_WRITE: (
            "worker-reachable code never writes attached shared-memory "
            "arrays (subscript stores, in-place ops, setflags)"
        ),
        RULE_PARENT: (
            "worker-reachable code never touches parent-only state "
            "(pool, store, session, DFS, parent storage calls)"
        ),
        RULE_FROZEN: (
            "payload classes crossing the worker queue are "
            "@dataclass(frozen=True)"
        ),
    },
)
