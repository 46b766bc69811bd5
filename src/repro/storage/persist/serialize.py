"""JSON payload (de)serialization for the durable catalog.

Everything the catalog persists beyond raw column bytes travels as JSON:
schemas, partitioning trees, selection predicates, window queries, change
descriptors and RNG states.  The payload shapes are chosen so a round trip
is *exact* — trees serialize through the same preorder flat-array form the
compiled tree uses (cutpoints survive as shortest-round-trip floats),
predicate values are unwrapped to Python scalars, and RNG states carry the
bit generator's full integer state — because the acceptance contract of the
persistence tier is bit-identical ``QueryResult.fingerprint()``s across a
restart.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...common.errors import StorageError
from ...common.predicates import Operator, Predicate
from ...common.query import JoinClause, Query
from ...common.schema import Column, DataType, Schema
from ...partitioning.tree import PartitioningTree, TreeNode

#: Bumped whenever any payload shape changes incompatibly (2, 3 and 4: the
#: stored config lost fields; 4 also a legal ``execution_backend`` value; 5: a
#: spilled version is one file).  ``PersistenceManager.open`` refuses other
#: versions.
FORMAT_VERSION = 5


def _plain_scalar(value: Any) -> Any:
    """Unwrap numpy scalars so ``json.dumps`` accepts the payload."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# --------------------------------------------------------------------- #
# Schemas
# --------------------------------------------------------------------- #
def schema_to_payload(schema: Schema) -> list[list[str]]:
    """Schema -> ``[[name, dtype], ...]`` in declaration order."""
    return [[column.name, column.dtype.value] for column in schema.columns]


def schema_from_payload(payload: list[list[str]]) -> Schema:
    """Inverse of :func:`schema_to_payload`."""
    return Schema([Column(name, DataType(dtype)) for name, dtype in payload])


# --------------------------------------------------------------------- #
# Predicates and queries (the adaptation window)
# --------------------------------------------------------------------- #
def predicate_to_payload(predicate: Predicate) -> list[Any]:
    """Predicate -> ``[column, op, value, high]`` (IN tuples become lists)."""
    value: Any = predicate.value
    if isinstance(value, tuple):
        value = [_plain_scalar(item) for item in value]
    else:
        value = _plain_scalar(value)
    return [predicate.column, predicate.op.value, value, _plain_scalar(predicate.high)]


def predicate_from_payload(payload: list[Any]) -> Predicate:
    """Inverse of :func:`predicate_to_payload`."""
    column, op_value, value, high = payload
    op = Operator(op_value)
    if op is Operator.IN:
        value = tuple(value)
    return Predicate(column=column, op=op, value=value, high=high)


def query_to_payload(query: Query) -> dict[str, Any]:
    """Query -> JSON dict (``query_id`` is not persisted; it is a process-
    local counter value and feeds no adaptation or planning decision)."""
    return {
        "tables": list(query.tables),
        "template": query.template,
        "predicates": {
            table: [predicate_to_payload(p) for p in predicates]
            for table, predicates in query.predicates.items()
        },
        "joins": [
            [j.left_table, j.right_table, j.left_column, j.right_column]
            for j in query.joins
        ],
    }


def query_from_payload(payload: dict[str, Any]) -> Query:
    """Inverse of :func:`query_to_payload` (a fresh ``query_id`` is drawn)."""
    return Query(
        tables=list(payload["tables"]),
        predicates={
            table: [predicate_from_payload(p) for p in predicates]
            for table, predicates in payload["predicates"].items()
        },
        joins=[JoinClause(lt, rt, lc, rc) for lt, rt, lc, rc in payload["joins"]],
        template=payload["template"],
    )


# --------------------------------------------------------------------- #
# Partitioning trees
# --------------------------------------------------------------------- #
def tree_to_payload(tree: PartitioningTree) -> dict[str, Any]:
    """Tree -> preorder flat arrays (the compiled tree's own shape).

    Leaves carry their bound block ids in left-to-right leaf order, so the
    restored tree's leaves rebind to exactly the same DFS blocks.
    """
    compiled = tree.compiled()
    return {
        "join_attribute": tree.join_attribute,
        "join_levels": tree.join_levels,
        "tree_id": tree.tree_id,
        "attributes": list(compiled.attributes),
        "node_attr": compiled.node_attr.tolist(),
        "cutpoints": compiled.cutpoints.tolist(),
        "left": compiled.left.tolist(),
        "right": compiled.right.tolist(),
        "leaf_pos": compiled.leaf_pos.tolist(),
        "leaf_block_ids": [leaf.block_id for leaf in compiled.leaf_nodes],
    }


def tree_from_payload(payload: dict[str, Any]) -> PartitioningTree:
    """Inverse of :func:`tree_to_payload`."""
    attributes = payload["attributes"]
    node_attr = payload["node_attr"]
    cutpoints = payload["cutpoints"]
    left = payload["left"]
    right = payload["right"]
    leaf_pos = payload["leaf_pos"]
    leaf_block_ids = payload["leaf_block_ids"]
    count = len(node_attr)
    if count == 0:
        raise StorageError("serialized tree has no nodes")
    # Preorder numbering means every child index exceeds its parent's, so a
    # reverse walk can build each node fully-formed from its children.
    nodes: list[TreeNode | None] = [None] * count
    for index in reversed(range(count)):
        if node_attr[index] >= 0:
            nodes[index] = TreeNode(
                attribute=attributes[node_attr[index]],
                cutpoint=cutpoints[index],
                left=nodes[left[index]],
                right=nodes[right[index]],
            )
        else:
            nodes[index] = TreeNode(block_id=leaf_block_ids[leaf_pos[index]])
    return PartitioningTree(
        root=nodes[0],
        join_attribute=payload["join_attribute"],
        join_levels=payload["join_levels"],
        tree_id=payload["tree_id"],
    )


# --------------------------------------------------------------------- #
# RNG states
# --------------------------------------------------------------------- #
def rng_state_payload(rng: np.random.Generator) -> dict[str, Any]:
    """Full bit-generator state (arbitrary-precision ints survive JSON)."""
    return dict(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, payload: dict[str, Any]) -> None:
    """Restore a generator to a previously captured state in place."""
    rng.bit_generator.state = payload
