"""The durable tier's one file format and its JSON payloads.

Spill files and the checkpoint are one kind of file: a prefix (magic,
header length, header CRC32), a JSON header whose ``columns`` entry lays out
``[name, dtype, length, offset, crc32]`` per column (offsets relative to the
aligned end of the header), then the raw column bytes, each 64-byte aligned.
:func:`write_file` is the one writer; :func:`read_header`,
:func:`column_layout` and :func:`read_columns` are the one parser, and a
damaged file raises the caller's :class:`StorageError`.

Everything else travels as JSON: schemas, partitioning trees, selection
predicates, window queries and RNG states.  The payload
shapes are chosen so a round trip is *exact* — trees serialize through the
same preorder flat-array form the compiled tree uses (cutpoints survive as
shortest-round-trip floats), predicate values are unwrapped to Python
scalars, and RNG states carry the bit generator's full integer state —
because the acceptance contract of the persistence tier is bit-identical
``QueryResult.fingerprint()``s across a restart.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections.abc import Container, Mapping
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ...common.errors import StorageError
from ...common.predicates import Operator, Predicate
from ...common.query import JoinClause, Query
from ...common.schema import Column, DataType, Schema
from ...partitioning.tree import PartitioningTree, TreeNode

#: Bumped whenever any payload shape changes incompatibly (2, 3 and 4: the
#: stored config lost fields; 4 also a legal ``execution_backend`` value; 5: a
#: spilled version is one file; 6: the metadata is one checkpoint file; 7: a
#: change descriptor is block ids plus ``full``, and the stored config and
#: tables lost the bound of the descriptor chain; 8: the chain is gone, and
#: each block's entry carries the epoch it last changed at; 9: the stored
#: config lost the grouping-algorithm field; 10: the stored config lost the
#: six fields no caller set, now constants; 11: a table's entry lost its
#: row total and each block's entry its tree, both read off the trees).
#: ``PersistenceManager.open`` refuses other versions.
FORMAT_VERSION = 11

#: File prefix: magic, header length, header CRC32.
_PREFIX = struct.Struct("<8sII")
_MAGIC = b"ADAPTDB\x00"
_ALIGN = 64

#: One column of a parsed layout: name, dtype, length, absolute offset, CRC32.
ColumnLayout = tuple[str, np.dtype, int, int, int]
#: Builds the error a damaged file raises from what is wrong with it.
Damaged = Callable[[str], StorageError]


def _aligned(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


# --------------------------------------------------------------------- #
# The file format
# --------------------------------------------------------------------- #
def write_file(path: Path, header: dict[str, Any], columns: Mapping[str, np.ndarray]) -> int:
    """Write ``header`` and ``columns`` as one file at ``path``.

    The file is staged under ``<name>.tmp`` and renamed into place, so a
    crash mid-write never produces a file a reader could pick up.  Returns
    the column payload bytes written.
    """
    arrays = {name: np.ascontiguousarray(array) for name, array in columns.items()}
    layout: list[list[Any]] = []
    end = 0
    for name, array in arrays.items():
        layout.append([name, array.dtype.str, len(array), end, zlib.crc32(array)])
        end = _aligned(end + array.nbytes)
    blob = json.dumps({**header, "columns": layout}).encode()
    prefix = _PREFIX.pack(_MAGIC, len(blob), zlib.crc32(blob)) + blob
    staging = path.with_name(path.name + ".tmp")
    with open(staging, "wb") as out:
        out.write(prefix + bytes(-len(prefix) % _ALIGN))
        for array in arrays.values():
            out.write(array)  # straight from the array's buffer
            out.write(bytes(-array.nbytes % _ALIGN))
    os.replace(staging, path)
    return sum(array.nbytes for array in arrays.values())


def read_header(buffer: Any, damaged: Damaged) -> tuple[bytes, int]:
    """Check a file's prefix and header checksum.

    Returns the header's JSON bytes and the offset its column offsets are
    relative to.
    """
    if len(buffer) < _PREFIX.size:
        raise damaged("is empty" if len(buffer) == 0 else "is truncated")
    magic, header_size, header_crc = _PREFIX.unpack_from(buffer)
    if magic != _MAGIC:
        raise damaged("does not start with the file magic")
    header = buffer[_PREFIX.size : _PREFIX.size + header_size]
    if len(header) != header_size:
        raise damaged("is truncated inside its header")
    if zlib.crc32(header) != header_crc:
        raise damaged("has a damaged header")
    return header, _aligned(_PREFIX.size + header_size)


def column_layout(columns: list[list[Any]], data_start: int) -> list[ColumnLayout]:
    """A header's ``columns`` entry with dtypes parsed and offsets absolute."""
    return [
        (name, np.dtype(dtype_str), length, data_start + offset, crc)
        for name, dtype_str, length, offset, crc in columns
    ]


def read_columns(
    buffer: Any,
    layout: list[ColumnLayout],
    damaged: Damaged,
    verified: Container[str] = (),
) -> dict[str, np.ndarray]:
    """Read-only views of the columns of ``layout``, each checked against
    its CRC32 unless its name is in ``verified``."""
    columns: dict[str, np.ndarray] = {}
    for name, dtype, length, offset, crc in layout:
        try:
            column = np.frombuffer(buffer, dtype=dtype, count=length, offset=offset)
        except ValueError:
            raise damaged(f"is truncated inside column {name!r}") from None
        if name not in verified and zlib.crc32(column) != crc:
            raise damaged(f"fails the checksum of column {name!r}")
        columns[name] = column
    return columns


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
