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
arrays (per-node attribute index, cutpoint and child offsets, plus the
left-to-right leaf list) built once and cached until the structure changes.
``lookup`` walks the arrays iteratively, narrowing one ``(lo, hi)`` interval
per attribute in place instead of copying a bounds dict per node, and
``route_rows`` advances all rows level-synchronously through the node arrays
instead of rebuilding ``leaves()`` and an ``id()``-keyed index per call.
Structural edits must go through :meth:`resplit_node` (or call
:meth:`invalidate_compiled`) so the cache is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    ``leaf_nodes`` keeps the live :class:`TreeNode` references so block-id
    (re)binding never stales the cache.
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
    parent: np.ndarray
    all_block_ids: list[int] | None = None
    block_leaf_node: dict[int, int] | None = None


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

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def invalidate_compiled(self) -> None:
        """Drop the compiled form after a structural change to the tree."""
        self._compiled = None
        self._bottom_nodes = None

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
        parent = np.full(count, -1, dtype=np.int32)
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
            parent[left[index]] = index
            parent[right[index]] = index

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
            parent=parent,
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
        compiled = self.compiled()
        if compiled.all_block_ids is None:
            compiled.all_block_ids = [
                leaf.block_id for leaf in compiled.leaf_nodes if leaf.block_id is not None
            ]
        return list(compiled.all_block_ids)

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
        compiled.all_block_ids = None
        compiled.block_leaf_node = None

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
        node.attribute = attribute
        node.cutpoint = cutpoint
        assert node.left is not None and node.right is not None
        if not (node.left.is_leaf and node.right.is_leaf):
            # Re-splitting above the bottom level changes descendants' path
            # bounds; the bottom-node cache must be rebuilt.
            self._bottom_nodes = None
        compiled = self._compiled
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
        compiled.node_attr[index] = attr_index
        compiled.cutpoints[index] = cutpoint

    def bottom_internal_nodes(self) -> list[tuple[TreeNode, dict[str, tuple[float, float]]]]:
        """Internal nodes whose two children are both leaves, with path bounds.

        The result is cached alongside the compiled form (Amoeba enumerates
        these every query); treat the bounds dicts as read-only.
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

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route_rows(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Route every row to its leaf and return the per-row leaf index.

        The leaf index is the position of the leaf in :meth:`leaves`;
        callers map it to block ids via :meth:`block_ids` or handle the
        grouping themselves (as the loader does before block ids exist).

        All rows advance one tree level per iteration over the compiled node
        arrays, so the work is a handful of vectorized passes instead of a
        per-node recursion.

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
        node_attr, cutpoints = compiled.node_attr, compiled.cutpoints
        left, right = compiled.left, compiled.right
        if not compiled.attributes:  # single-leaf tree
            return np.zeros(num_rows, dtype=np.int64)

        # One float64 row per attribute: comparing against a float cutpoint
        # promotes integer columns to float64 anyway, so this is exact.
        values = np.empty((len(compiled.attributes), num_rows), dtype=np.float64)
        for attr_index, attribute in enumerate(compiled.attributes):
            values[attr_index] = columns[attribute]

        rows = np.arange(num_rows, dtype=np.int64)
        nodes = np.zeros(num_rows, dtype=np.int64)
        final_nodes = np.empty(num_rows, dtype=np.int64)
        while rows.size:
            attrs = node_attr[nodes]
            at_leaf = attrs < 0
            if at_leaf.any():
                final_nodes[rows[at_leaf]] = nodes[at_leaf]
                keep = ~at_leaf
                rows, nodes, attrs = rows[keep], nodes[keep], attrs[keep]
                if not rows.size:
                    break
            goes_left = values[attrs, rows] <= cutpoints[nodes]
            nodes = np.where(goes_left, left[nodes], right[nodes])

        return compiled.leaf_pos[final_nodes].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Lookup (block pruning)
    # ------------------------------------------------------------------ #
    def lookup(self, predicates: list[Predicate] | None = None) -> list[int]:
        """Return the block ids of leaves that may contain matching rows.

        This is the ``lookup(T, q)`` function from the paper's cost model.
        Leaves that are not bound to a block id are skipped.  The walk is
        iterative over the compiled arrays: one ``(lo, hi)`` interval per
        attribute is narrowed before descending and restored afterwards, and
        only the predicates on the node's own split attribute are re-checked
        (the rest were already satisfied on the path down).
        """
        compiled = self.compiled()
        leaf_nodes = compiled.leaf_nodes

        predicates_by_attr: dict[int, list[Predicate]] = {}
        for predicate in predicates or ():
            attr_index = compiled.attribute_index.get(predicate.column)
            if attr_index is not None:
                predicates_by_attr.setdefault(attr_index, []).append(predicate)
        if not predicates_by_attr:
            if compiled.all_block_ids is None:
                compiled.all_block_ids = [
                    leaf.block_id for leaf in leaf_nodes if leaf.block_id is not None
                ]
            return list(compiled.all_block_ids)

        node_attr, cutpoints = compiled.node_attr, compiled.cutpoints
        left, right, leaf_pos = compiled.left, compiled.right, compiled.leaf_pos
        lo = [-math.inf] * len(compiled.attributes)
        hi = [math.inf] * len(compiled.attributes)
        matched: list[int] = []

        # Stack entries: (node, attr, lo_value, hi_value).  node >= 0 visits
        # that node after installing bounds[attr] = (lo_value, hi_value)
        # (attr < 0: nothing to install); node < 0 restores bounds[attr].
        stack: list[tuple[int, int, float, float]] = [(0, -1, 0.0, 0.0)]
        while stack:
            node, attr, lo_value, hi_value = stack.pop()
            if node < 0:
                lo[attr], hi[attr] = lo_value, hi_value
                continue
            if attr >= 0:
                lo[attr], hi[attr] = lo_value, hi_value
            split_attr = node_attr[node]
            if split_attr < 0:
                leaf = leaf_nodes[leaf_pos[node]]
                if leaf.block_id is not None:
                    matched.append(leaf.block_id)
                continue
            cutpoint = cutpoints[node]
            current_lo, current_hi = lo[split_attr], hi[split_attr]
            left_hi = cutpoint if cutpoint < current_hi else current_hi
            right_lo = cutpoint if cutpoint > current_lo else current_lo
            attr_predicates = predicates_by_attr.get(split_attr)
            if attr_predicates is None:
                visit_left = visit_right = True
            else:
                visit_left = all(
                    p.may_match_range(current_lo, left_hi) for p in attr_predicates
                )
                visit_right = all(
                    p.may_match_range(right_lo, current_hi) for p in attr_predicates
                )
            stack.append((-1, split_attr, current_lo, current_hi))
            if visit_right:
                stack.append((right[node], split_attr, right_lo, current_hi))
            if visit_left:
                stack.append((left[node], split_attr, current_lo, left_hi))

        return matched

    def lookup_block(self, block_id: int, predicates: list[Predicate] | None = None) -> bool:
        """Whether :meth:`lookup` would include ``block_id`` — in O(depth).

        Walks the compiled parent chain from the block's leaf to the root,
        intersecting the per-attribute path interval, and tests the
        predicates against that final interval.  ``may_match_range`` is
        monotone under interval widening for every operator, so passing the
        final (narrowest) interval implies passing every intermediate one —
        this reproduces :meth:`lookup` membership exactly without walking
        the whole tree.  Unknown block ids return ``False``.
        """
        compiled = self.compiled()
        if compiled.block_leaf_node is None:
            leaf_pos = compiled.leaf_pos
            leaf_nodes = compiled.leaf_nodes
            compiled.block_leaf_node = {
                bound: int(node)
                for node in np.flatnonzero(leaf_pos >= 0)
                if (bound := leaf_nodes[leaf_pos[node]].block_id) is not None
            }
        node = compiled.block_leaf_node.get(block_id)
        if node is None:
            return False

        # attribute index -> [lo, hi]; min/max make the walk order-free.
        intervals: dict[int, list[float]] = {}
        parent, left = compiled.parent, compiled.left
        node_attr, cutpoints = compiled.node_attr, compiled.cutpoints
        child = node
        above = int(parent[child])
        while above >= 0:
            box = intervals.setdefault(int(node_attr[above]), [-math.inf, math.inf])
            cutpoint = float(cutpoints[above])
            if left[above] == child:
                if cutpoint < box[1]:
                    box[1] = cutpoint
            elif cutpoint > box[0]:
                box[0] = cutpoint
            child = above
            above = int(parent[above])

        for predicate in predicates or ():
            attr_index = compiled.attribute_index.get(predicate.column)
            if attr_index is None:
                continue  # lookup() ignores predicates on unsplit columns
            box = intervals.get(attr_index)
            lo, hi = (box[0], box[1]) if box is not None else (-math.inf, math.inf)
            if not predicate.may_match_range(lo, hi):
                return False
        return True

    def leaf_bounds(self, attribute: str) -> dict[int, tuple[float, float]]:
        """Per-leaf value bounds of ``attribute`` implied by the tree structure.

        Returns a mapping ``block_id -> (lo, hi)`` for bound leaves.  Leaves
        under subtrees that never split on ``attribute`` get infinite bounds.
        """
        result: dict[int, tuple[float, float]] = {}

        def descend(node: TreeNode, lo: float, hi: float) -> None:
            if node.is_leaf:
                if node.block_id is not None:
                    result[node.block_id] = (lo, hi)
                return
            assert node.left is not None and node.right is not None
            if node.attribute == attribute:
                assert node.cutpoint is not None
                descend(node.left, lo, min(hi, node.cutpoint))
                descend(node.right, max(lo, node.cutpoint), hi)
            else:
                descend(node.left, lo, hi)
                descend(node.right, lo, hi)

        descend(self.root, -math.inf, math.inf)
        return result

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
