"""Task-purity checker.

Compiled :class:`~repro.exec.tasks.Task` objects are the unit the
scheduler, the simulator, and the ROADMAP's future process-pool backend
move around.  They stay cheap to copy/pickle and safe to replay only if
they carry ids and flat arrays — never live storage objects.  Rules:

``task-purity-field``
    ``Task``/``TaskSchedule`` dataclass fields may not be annotated with
    storage/runtime types (``Block``, ``StoredTable``, ``Catalog``, ...).

``task-purity-capture``
    In ``repro.exec``, a value obtained from block storage (``peek_block``,
    ``get_block(s)``, or a ``Block``/``StoredTable`` constructor) may not
    be passed into a ``Task(...)``/``new_task(...)`` construction — tasks
    must re-fetch blocks by id at execution time.  The taint tracking is
    shallow by design: direct calls, names assigned from them, and list
    comprehensions over them.
"""

from __future__ import annotations

import ast

from .framework import AnalysisContext, Checker, SourceFile, Violation, dotted_name

RULE_FIELD = "task-purity-field"
RULE_CAPTURE = "task-purity-capture"

#: Types a task may never reference.
BANNED_TYPES = frozenset(
    {
        "Block",
        "StoredTable",
        "Catalog",
        "DistributedFileSystem",
        "Cluster",
        "TreeNode",
        "PartitioningTree",
        "ColumnTable",
    }
)

#: The interpreter's work descriptions obey the same purity discipline as
#: tasks: the pool runner ships them across a process boundary, so only
#: ids, pins and flat data may ride.
PAYLOAD_CLASSES = frozenset({"BlockInput", "TaskWork", "TaskOutcome"})

TASK_CLASSES = frozenset({"Task", "TaskSchedule"}) | PAYLOAD_CLASSES
TASK_CONSTRUCTORS = frozenset({"Task", "new_task"}) | PAYLOAD_CLASSES
TAINT_METHODS = frozenset({"peek_block", "get_block", "get_blocks"})
TAINT_CONSTRUCTORS = frozenset({"Block", "StoredTable"})

#: ``repro.storage.persist`` is in scope so that any future payload/task
#: class in the durable tier obeys the same ids-and-flat-arrays
#: discipline as the execution and parallel layers.
SCOPE_PREFIXES = ("repro.exec", "repro.parallel", "repro.storage.persist")


def _annotation_mentions_banned(annotation: ast.expr) -> str | None:
    """The first banned type named in an annotation, if any."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in BANNED_TYPES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in BANNED_TYPES:
            return node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Nested string annotation, e.g. list["Block"].
            if node.value in BANNED_TYPES:
                return node.value
    return None


def _check_task_fields(source: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in TASK_CLASSES:
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            banned = _annotation_mentions_banned(stmt.annotation)
            if banned is not None:
                violations.append(
                    Violation(
                        rule=RULE_FIELD,
                        path=source.path,
                        line=stmt.lineno,
                        message=(
                            f"{node.name} field references {banned}; tasks must "
                            "hold only ids and flat data"
                        ),
                        hint="store the object's id and look it up at run time",
                    )
                )
    return violations


def _is_taint_source(node: ast.expr, tainted: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in TAINT_METHODS:
            return True
        name = dotted_name(func)
        if name is not None and name.split(".")[-1] in TAINT_CONSTRUCTORS:
            return True
        return False
    if isinstance(node, ast.ListComp):
        return _is_taint_source(node.elt, tainted)
    return False


def _check_captures(source: SourceFile) -> list[Violation]:
    violations: list[Violation] = []
    for scope in [source.tree, *(
        node
        for node in ast.walk(source.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )]:
        tainted: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and _is_taint_source(node.value, tainted):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in TASK_CONSTRUCTORS:
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if _is_taint_source(argument, tainted):
                    violations.append(
                        Violation(
                            rule=RULE_CAPTURE,
                            path=source.path,
                            line=node.lineno,
                            message=(
                                "task construction captures a live storage "
                                "object (Block/StoredTable)"
                            ),
                            hint="pass block/table ids; fetch blocks inside the task",
                        )
                    )
                    break
    # Module- and function-level walks overlap; keep one finding per line.
    unique = {violation.line: violation for violation in violations}
    return [unique[line] for line in sorted(unique)]


def check(source: SourceFile, context: AnalysisContext) -> list[Violation]:
    if not source.module.startswith(SCOPE_PREFIXES):
        return []
    violations = _check_task_fields(source)
    violations.extend(_check_captures(source))
    return violations


CHECKER = Checker(
    name="task-purity",
    rules=(RULE_FIELD, RULE_CAPTURE),
    check=check,
    descriptions={
        RULE_FIELD: (
            "compiled task payload fields carry ids and plain data, never "
            "live storage objects"
        ),
        RULE_CAPTURE: (
            "task-building code never closes over live storage objects"
        ),
    },
)
