"""Partitioning trees.

A partitioning tree (Amoeba [21], Section 3) is a balanced binary tree whose
internal nodes are ``(attribute, cutpoint)`` pairs and whose leaves are data
blocks.  Records with ``attribute <= cutpoint`` belong to the left subtree,
the rest to the right subtree.  The tree answers two questions:

* ``route_rows`` — which block does each record belong to (used when loading
  and when repartitioning), and
* ``lookup`` — which blocks can contain rows matching a set of predicates
  (used for block pruning and as the ``lookup(T, q)`` function of the cost
  model, equations (1) and (2)).

In AdaptDB a tree may additionally carry a *join attribute*: the top
``join_levels`` levels split on that attribute (two-phase partitioning,
Section 5.1).

Both hot entry points run off a *compiled* form of the tree: flat numpy
arrays (per-node attribute index, cutpoint and child offsets, the
left-to-right leaf list, and every leaf's box — its path interval per
attribute) built once and cached until the structure changes.  ``lookup``
is one array ``may_match_range`` per predicate over the leaf boxes, ANDed,
and ``route_rows`` walks every row the same fixed number of steps (the
tree's depth) through the node arrays, a leaf looping to itself.
Structural edits must go through :meth:`resplit_node` (or call
:meth:`invalidate_compiled`) so the cache is patched or rebuilt, and leaves
are (re)bound through :meth:`assign_block_ids`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from ..common.errors import PartitioningError
from ..common.predicates import Predicate


@dataclass
class TreeNode:
    """A node of a partitioning tree.

    Internal nodes have ``attribute``/``cutpoint``/``left``/``right`` set and
    ``block_id`` unset; leaves are the opposite.
    """

    attribute: str | None = None
    cutpoint: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    block_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a leaf (i.e. a data block)."""
        return self.left is None and self.right is None

    def clone(self) -> "TreeNode":
        """Deep-copy the subtree rooted at this node."""
        if self.is_leaf:
            return TreeNode(block_id=self.block_id)
        assert self.left is not None and self.right is not None
        return TreeNode(
            attribute=self.attribute,
            cutpoint=self.cutpoint,
            left=self.left.clone(),
            right=self.right.clone(),
            block_id=None,
        )


@dataclass
class CompiledTree:
    """Flat, allocation-friendly form of a partitioning tree.

    Nodes are numbered in preorder (root = 0).  ``node_attr[i]`` is the index
    into ``attributes`` of node ``i``'s split attribute, or ``-1`` for a
    leaf; ``left``/``right`` hold child node numbers (``-1`` for leaves) and
    ``leaf_pos`` maps a leaf node number to its left-to-right leaf position.
    For routing, ``children[2 * i + 1]`` / ``children[2 * i]`` are node
    ``i``'s left / right child, and a leaf is its own child on both sides,
    so every row takes ``depth`` steps, the longest root-to-leaf path.
    ``leaf_lo[a, j]`` / ``leaf_hi[a, j]`` bound attribute ``a`` on leaf
    ``j``'s root path: a row routed to leaf ``j`` has ``leaf_lo < value <=
    leaf_hi`` on every split attribute (``-inf`` / ``inf`` where the path
    never splits on it).  ``bound_blocks`` / ``bound_leaves`` are derived
    from the leaves' block ids on first use.
    """

    attributes: list[str]
    attribute_index: dict[str, int]
    node_attr: np.ndarray
    cutpoints: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_pos: np.ndarray
    leaf_nodes: list[TreeNode]
    node_index: dict[int, int]
    leaf_lo: np.ndarray
    leaf_hi: np.ndarray
    children: np.ndarray
    depth: int
    bound_blocks: list[int] | None = None
    bound_leaves: np.ndarray | None = None

    def bound_leaf_blocks(self) -> tuple[list[int], np.ndarray]:
        """Block ids of the bound leaves, left to right, and their leaf positions.

        The ids are the leaves' own ``int`` objects: lookup results select
        from this list instead of allocating an ``int`` per block per call.
        """
        if self.bound_blocks is None:
            positions = [p for p, leaf in enumerate(self.leaf_nodes) if leaf.block_id is not None]
            self.bound_blocks = [self.leaf_nodes[p].block_id for p in positions]  # type: ignore[misc]
            self.bound_leaves = np.array(positions, dtype=np.intp)
        assert self.bound_leaves is not None
        return self.bound_blocks, self.bound_leaves


@dataclass
class PartitioningTree:
    """A complete partitioning tree for one table (or one join attribute of it).

    Attributes:
        root: Root node.
        join_attribute: Join attribute this tree is optimized for (``None``
            for pure Amoeba trees that only adapt to selections).
        join_levels: Number of top levels reserved for the join attribute.
        tree_id: Identifier unique within the owning table.
    """

    root: TreeNode
    join_attribute: str | None = None
    join_levels: int = 0
    tree_id: int = 0
    _compiled: CompiledTree | None = field(default=None, init=False, repr=False, compare=False)
    _bottom_nodes: list | None = field(default=None, init=False, repr=False, compare=False)
    _bottom_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def invalidate_compiled(self) -> None:
        """Drop the compiled form after a structural change to the tree."""
        self._compiled = None
        self._bottom_nodes = None
        self._bottom_memo = {}

    def compiled(self) -> CompiledTree:
        """Return the compiled form, rebuilding it if the structure changed."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def _compile(self) -> CompiledTree:
        nodes: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        index_of = {id(node): index for index, node in enumerate(nodes)}

        count = len(nodes)
        attributes: list[str] = []
        attribute_index: dict[str, int] = {}
        node_attr = np.full(count, -1, dtype=np.int32)
        cutpoints = np.zeros(count, dtype=np.float64)
        left = np.full(count, -1, dtype=np.int32)
        right = np.full(count, -1, dtype=np.int32)
        leaf_pos = np.full(count, -1, dtype=np.int32)
        leaf_nodes: list[TreeNode] = []

        for index, node in enumerate(nodes):
            if node.is_leaf:
                leaf_pos[index] = len(leaf_nodes)
                leaf_nodes.append(node)
                continue
            assert node.attribute is not None and node.cutpoint is not None
            attr_index = attribute_index.get(node.attribute)
            if attr_index is None:
                attr_index = len(attributes)
                attribute_index[node.attribute] = attr_index
                attributes.append(node.attribute)
            node_attr[index] = attr_index
            cutpoints[index] = node.cutpoint
            left[index] = index_of[id(node.left)]
            right[index] = index_of[id(node.right)]

        # Path boxes in preorder: a parent's box is final before its
        # children's.  ``c if c < hi else hi`` (not np.minimum) leaves a box
        # untouched by a NaN cutpoint, exactly as routing never sends a row
        # through a NaN comparison's left side.
        lo = np.full((count, len(attributes)), -math.inf)
        hi = np.full((count, len(attributes)), math.inf)
        for index in np.flatnonzero(node_attr >= 0).tolist():
            attr_index, cutpoint = node_attr[index], cutpoints[index]
            left_child, right_child = left[index], right[index]
            lo[left_child] = lo[right_child] = lo[index]
            hi[left_child] = hi[right_child] = hi[index]
            if cutpoint < hi[index, attr_index]:
                hi[left_child, attr_index] = cutpoint
            if cutpoint > lo[index, attr_index]:
                lo[right_child, attr_index] = cutpoint
        leaves = np.flatnonzero(node_attr < 0)  # preorder = left to right

        # Routing steps: a leaf loops to itself; depth is the longest path,
        # parents before children in preorder.
        node_numbers = np.arange(count, dtype=np.intp)
        children = np.empty(2 * count, dtype=np.intp)
        children[0::2] = np.where(right >= 0, right, node_numbers)
        children[1::2] = np.where(left >= 0, left, node_numbers)
        depths = np.zeros(count, dtype=np.intp)
        for index in np.flatnonzero(node_attr >= 0).tolist():
            depths[left[index]] = depths[right[index]] = depths[index] + 1

        return CompiledTree(
            attributes=attributes,
            attribute_index=attribute_index,
            node_attr=node_attr,
            cutpoints=cutpoints,
            left=left,
            right=right,
            leaf_pos=leaf_pos,
            leaf_nodes=leaf_nodes,
            node_index=index_of,
            leaf_lo=np.ascontiguousarray(lo[leaves].T),
            leaf_hi=np.ascontiguousarray(hi[leaves].T),
            children=children,
            depth=int(depths.max()),
        )

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #
    def leaves(self) -> list[TreeNode]:
        """All leaf nodes, left to right."""
        return list(self.compiled().leaf_nodes)

    @property
    def num_leaves(self) -> int:
        """Number of leaves (data blocks) in the tree."""
        return len(self.compiled().leaf_nodes)

    def block_ids(self) -> list[int]:
        """Block ids of all leaves that have been bound to blocks."""
        return list(self.compiled().bound_leaf_blocks()[0])

    def assign_block_ids(self, block_ids: list[int]) -> None:
        """Bind leaf nodes to DFS block ids, left to right.

        Raises:
            PartitioningError: if the number of ids differs from the number
                of leaves.
        """
        compiled = self.compiled()
        leaves = compiled.leaf_nodes
        if len(block_ids) != len(leaves):
            raise PartitioningError(
                f"expected {len(leaves)} block ids, got {len(block_ids)}"
            )
        for leaf, block_id in zip(leaves, block_ids):
            leaf.block_id = block_id
        compiled.bound_blocks = compiled.bound_leaves = None

    # ------------------------------------------------------------------ #
    # Structure inspection / mutation
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Depth of the tree (a single leaf has depth 0)."""

        def node_depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(self.root)

    def attribute_counts(self) -> dict[str, int]:
        """How many internal nodes split on each attribute."""
        counts: dict[str, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            assert node.attribute is not None
            counts[node.attribute] = counts.get(node.attribute, 0) + 1
            assert node.left is not None and node.right is not None
            stack.append(node.left)
            stack.append(node.right)
        return counts

    def clone(self) -> "PartitioningTree":
        """Deep copy of the tree (shares no nodes with the original)."""
        return PartitioningTree(
            root=self.root.clone(),
            join_attribute=self.join_attribute,
            join_levels=self.join_levels,
            tree_id=self.tree_id,
        )

    def resplit_node(self, node: TreeNode, attribute: str, cutpoint: float) -> None:
        """Change an internal node's split attribute/cutpoint (Amoeba transform).

        This is the supported structural-mutation entry point.  A re-split
        keeps the node's position, children, leaf order and path bounds, so
        the compiled form is patched in place (and the bottom-node cache
        stays valid) instead of being rebuilt from scratch every transform.
        """
        if node.is_leaf:
            raise PartitioningError("cannot re-split a leaf node")
        assert node.left is not None and node.right is not None
        node.attribute = attribute
        node.cutpoint = cutpoint
        compiled = self._compiled
        if not (node.left.is_leaf and node.right.is_leaf):
            # Above the bottom level every descendant's path box changes.
            self.invalidate_compiled()
            return
        if compiled is None:
            return
        index = compiled.node_index.get(id(node))
        if index is None:  # node unknown to the cache — fall back to a rebuild
            self.invalidate_compiled()
            return
        attr_index = compiled.attribute_index.get(attribute)
        if attr_index is None:
            attr_index = len(compiled.attributes)
            compiled.attributes.append(attribute)
            compiled.attribute_index[attribute] = attr_index
            width = compiled.leaf_lo.shape[1]
            compiled.leaf_lo = np.vstack([compiled.leaf_lo, np.full((1, width), -math.inf)])
            compiled.leaf_hi = np.vstack([compiled.leaf_hi, np.full((1, width), math.inf)])
        compiled.node_attr[index] = attr_index
        compiled.cutpoints[index] = cutpoint
        # The node's own box is the union of its two leaves' boxes; the new
        # split narrows one attribute of each side, as _compile would.
        left_leaf = compiled.leaf_pos[compiled.left[index]]
        right_leaf = compiled.leaf_pos[compiled.right[index]]
        pair = [left_leaf, right_leaf]
        box_lo = compiled.leaf_lo[:, pair].min(axis=1)
        box_hi = compiled.leaf_hi[:, pair].max(axis=1)
        compiled.leaf_lo[:, pair] = box_lo[:, None]
        compiled.leaf_hi[:, pair] = box_hi[:, None]
        if cutpoint < box_hi[attr_index]:
            compiled.leaf_hi[attr_index, left_leaf] = cutpoint
        if cutpoint > box_lo[attr_index]:
            compiled.leaf_lo[attr_index, right_leaf] = cutpoint

    def bottom_internal_nodes(self) -> list[tuple[TreeNode, dict[str, tuple[float, float]]]]:
        """Internal nodes whose two children are both leaves, with path bounds.

        The result is cached alongside the compiled form (Amoeba enumerates
        these every query); treat the bounds dicts as read-only.  See
        :meth:`bottom_memo` for results derived from it.
        """
        if self._bottom_nodes is None:
            result: list[tuple[TreeNode, dict[str, tuple[float, float]]]] = []

            def descend(node: TreeNode, bounds: dict[str, tuple[float, float]]) -> None:
                if node.is_leaf:
                    return
                assert node.left is not None and node.right is not None
                if node.left.is_leaf and node.right.is_leaf:
                    result.append((node, dict(bounds)))
                    return
                assert node.attribute is not None and node.cutpoint is not None
                lo, hi = bounds.get(node.attribute, (-math.inf, math.inf))
                left_bounds = dict(bounds)
                left_bounds[node.attribute] = (lo, min(hi, node.cutpoint))
                right_bounds = dict(bounds)
                right_bounds[node.attribute] = (max(lo, node.cutpoint), hi)
                descend(node.left, left_bounds)
                descend(node.right, right_bounds)

            descend(self.root, {})
            self._bottom_nodes = result
        return self._bottom_nodes

    def bottom_memo(self) -> dict:
        """Scratch space for results derived from :meth:`bottom_internal_nodes`,
        emptied with it; a bottom-level re-split keeps both, so what depends
        on a node's own split must key on it."""
        return self._bottom_memo

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route_rows(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Route every row to its leaf and return the per-row leaf index.

        The leaf index is the position of the leaf in :meth:`leaves`;
        callers map it to block ids via :meth:`block_ids` or handle the
        grouping themselves (as the loader does before block ids exist).

        Every row takes the tree's compiled ``depth`` steps over the node
        arrays, a row at a leaf stepping to itself, so a step is one flat
        gather of the rows' split values and one of their next nodes, with
        no per-level compaction.  A row goes left when ``value <=
        cutpoint``; a NaN on either side compares false and goes right.

        Args:
            columns: Column name -> value array; must contain every attribute
                that appears in the tree.

        Returns:
            An ``int64`` array of leaf indices, one per row.
        """
        compiled = self.compiled()
        if not columns:
            return np.zeros(0, dtype=np.int64)
        for attribute in compiled.attributes:
            if attribute not in columns:
                raise PartitioningError(
                    f"cannot route rows: column {attribute!r} missing from data"
                )
        num_rows = len(next(iter(columns.values())))
        if not compiled.attributes:  # single-leaf tree
            return np.zeros(num_rows, dtype=np.int64)

        # One float64 row per attribute, flattened: comparing against a
        # float cutpoint promotes integer columns to float64 anyway, so this
        # is exact.  Node i reads its attribute's row at offsets[i].
        values = np.empty((len(compiled.attributes), num_rows), dtype=np.float64)
        for attr_index, attribute in enumerate(compiled.attributes):
            values[attr_index] = columns[attribute]
        flat = values.ravel()
        offsets = np.maximum(compiled.node_attr, 0).astype(np.intp) * num_rows
        cutpoints, children = compiled.cutpoints, compiled.children

        rows = np.arange(num_rows, dtype=np.intp)
        nodes = np.zeros(num_rows, dtype=np.intp)
        for _ in range(compiled.depth):
            goes_left = flat[offsets[nodes] + rows] <= cutpoints[nodes]
            nodes = children[2 * nodes + goes_left]
        return compiled.leaf_pos[nodes].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Lookup (block pruning)
    # ------------------------------------------------------------------ #
    def lookup(self, predicates: list[Predicate] | None = None) -> list[int]:
        """Return the block ids of leaves that may contain matching rows.

        This is the ``lookup(T, q)`` function from the paper's cost model: a
        leaf matches when every predicate on a split attribute may match the
        leaf's box.  Leaves that are not bound to a block id are skipped.
        """
        compiled = self.compiled()
        keep = None
        for predicate in predicates or ():
            attr_index = compiled.attribute_index.get(predicate.column)
            if attr_index is None:
                continue  # the tree never splits on it: no leaf is pruned
            match = predicate.may_match_range(
                compiled.leaf_lo[attr_index], compiled.leaf_hi[attr_index]
            )
            keep = match if keep is None else keep & match
        blocks, positions = compiled.bound_leaf_blocks()
        if keep is None:
            return list(blocks)
        return list(compress(blocks, keep[positions].tolist()))

    def leaf_bounds(self, attribute: str) -> dict[int, tuple[float, float]]:
        """Per-leaf value bounds of ``attribute`` implied by the tree structure.

        Returns a mapping ``block_id -> (lo, hi)`` for bound leaves.  Leaves
        under subtrees that never split on ``attribute`` get infinite bounds.
        """
        compiled = self.compiled()
        attr_index = compiled.attribute_index.get(attribute)
        blocks, positions = compiled.bound_leaf_blocks()
        if attr_index is None:
            return {block: (-math.inf, math.inf) for block in blocks}
        lows = compiled.leaf_lo[attr_index, positions].tolist()
        highs = compiled.leaf_hi[attr_index, positions].tolist()
        return dict(zip(blocks, zip(lows, highs)))

    def describe(self) -> str:
        """Multi-line textual rendering of the tree (for debugging/docs)."""
        lines: list[str] = []

        def render(node: TreeNode, indent: int) -> None:
            prefix = "  " * indent
            if node.is_leaf:
                lines.append(f"{prefix}leaf block={node.block_id}")
                return
            lines.append(f"{prefix}{node.attribute} <= {node.cutpoint:g}")
            assert node.left is not None and node.right is not None
            render(node.left, indent + 1)
            render(node.right, indent + 1)

        render(self.root, 0)
        return "\n".join(lines)
