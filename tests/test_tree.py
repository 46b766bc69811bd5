"""Tests for repro.partitioning.tree (routing, lookup, structure)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PartitioningError
from repro.common.predicates import Operator, Predicate, between, eq, gt, le
from repro.partitioning.tree import PartitioningTree, TreeNode


def two_level_tree() -> PartitioningTree:
    """A 4-leaf tree: split on `a` at 50, then on `b` at 10 / 20."""
    tree = PartitioningTree(
        root=TreeNode(
            attribute="a",
            cutpoint=50.0,
            left=TreeNode(attribute="b", cutpoint=10.0, left=TreeNode(), right=TreeNode()),
            right=TreeNode(attribute="b", cutpoint=20.0, left=TreeNode(), right=TreeNode()),
        )
    )
    tree.assign_block_ids([0, 1, 2, 3])
    return tree


class TestStructure:
    def test_leaves_left_to_right(self):
        assert two_level_tree().block_ids() == [0, 1, 2, 3]

    def test_num_leaves_and_depth(self):
        tree = two_level_tree()
        assert tree.num_leaves == 4
        assert tree.depth() == 2

    def test_single_leaf_tree(self):
        tree = PartitioningTree(root=TreeNode(block_id=7))
        assert tree.num_leaves == 1
        assert tree.depth() == 0
        assert tree.lookup([]) == [7]

    def test_attribute_counts(self):
        assert two_level_tree().attribute_counts() == {"a": 1, "b": 2}

    def test_assign_block_ids_length_mismatch(self):
        tree = two_level_tree()
        with pytest.raises(PartitioningError):
            tree.assign_block_ids([1, 2])

    def test_clone_is_deep(self):
        tree = two_level_tree()
        clone = tree.clone()
        clone.root.cutpoint = 99.0
        clone.leaves()[0].block_id = 42
        assert tree.root.cutpoint == 50.0
        assert tree.leaves()[0].block_id == 0

    def test_describe_mentions_attributes_and_blocks(self):
        text = two_level_tree().describe()
        assert "a <= 50" in text and "leaf block=3" in text


def nan_cutpoint_tree() -> PartitioningTree:
    """``two_level_tree`` whose left ``b`` split has a NaN cutpoint."""
    tree = two_level_tree()
    tree.root.left.cutpoint = math.nan
    tree.invalidate_compiled()
    return tree


def single_leaf_tree() -> PartitioningTree:
    return PartitioningTree(root=TreeNode(block_id=7))


class TestRouting:
    @pytest.mark.parametrize(
        "make_tree, columns, expected",
        [
            pytest.param(
                two_level_tree,
                {"a": [0, 0, 100, 100], "b": [5, 15, 15, 25]},
                [0, 1, 2, 3],
                id="two_level",
            ),
            # Every comparison with a NaN is false, so it goes right: under
            # the NaN cutpoint to leaf 1, and a NaN ``a`` to the right half.
            pytest.param(
                nan_cutpoint_tree,
                {"a": [0, 0, math.nan, 100], "b": [-math.inf, math.nan, 15, 25]},
                [1, 1, 2, 3],
                id="nan_cutpoint",
            ),
            pytest.param(single_leaf_tree, {"a": [1, 2, 3]}, [0, 0, 0], id="single_leaf"),
        ],
    )
    def test_route_rows_to_expected_leaves(self, make_tree, columns, expected):
        tree = make_tree()
        arrays = {name: np.array(values) for name, values in columns.items()}
        assert tree.route_rows(arrays).tolist() == expected

    def test_route_boundary_goes_left(self):
        tree = two_level_tree()
        columns = {"a": np.array([50]), "b": np.array([10])}
        assert tree.route_rows(columns).tolist() == [0]

    def test_route_empty_input(self):
        assert two_level_tree().route_rows({}).size == 0

    def test_route_missing_column_raises(self):
        with pytest.raises(PartitioningError):
            two_level_tree().route_rows({"a": np.array([1.0])})

    def test_routing_partitions_every_row_exactly_once(self, rng):
        tree = two_level_tree()
        columns = {
            "a": rng.uniform(0, 100, size=500),
            "b": rng.uniform(0, 30, size=500),
        }
        leaves = tree.route_rows(columns)
        assert len(leaves) == 500
        assert set(np.unique(leaves)).issubset({0, 1, 2, 3})


class TestLookup:
    def test_no_predicates_returns_all_blocks(self):
        assert two_level_tree().lookup([]) == [0, 1, 2, 3]

    def test_predicate_on_root_attribute_prunes_half(self):
        assert two_level_tree().lookup([le("a", 10)]) == [0, 1]
        assert two_level_tree().lookup([gt("a", 60)]) == [2, 3]

    def test_predicate_on_second_level(self):
        assert two_level_tree().lookup([le("a", 10), le("b", 5)]) == [0]

    def test_predicate_on_unknown_attribute_does_not_prune(self):
        assert two_level_tree().lookup([eq("c", 1)]) == [0, 1, 2, 3]

    def test_between_predicate_straddling_cutpoint(self):
        assert two_level_tree().lookup([between("a", 40, 60)]) == [0, 1, 2, 3]

    def test_unbound_leaves_are_skipped(self):
        tree = PartitioningTree(
            root=TreeNode(attribute="a", cutpoint=1.0, left=TreeNode(block_id=5), right=TreeNode())
        )
        assert tree.lookup([]) == [5]

    def test_lookup_is_consistent_with_routing(self, rng):
        """Every row routed to a leaf must be found by a point lookup for its values."""
        tree = two_level_tree()
        columns = {"a": rng.uniform(0, 100, size=50), "b": rng.uniform(0, 30, size=50)}
        leaves = tree.route_rows(columns)
        block_ids = tree.block_ids()
        for index in range(50):
            point_predicates = [
                eq("a", float(columns["a"][index])),
                eq("b", float(columns["b"][index])),
            ]
            assert block_ids[leaves[index]] in tree.lookup(point_predicates)


class TestCompiledForm:
    def test_compiled_reused_across_calls(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        tree.lookup([le("a", 10)])
        tree.route_rows({"a": np.array([1.0]), "b": np.array([1.0])})
        assert tree.compiled() is compiled

    def test_resplit_node_patches_compiled_in_place(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        node = tree.root.left  # splits on b at 10
        tree.resplit_node(node, "c", 7.0)
        # Same cache object, updated arrays: routing/lookup see the new split.
        assert tree.compiled() is compiled
        assert tree.lookup([le("c", 5)]) == [0, 2, 3]
        assert tree.lookup([gt("c", 8)]) == [1, 2, 3]
        columns = {
            "a": np.array([0.0, 0.0]),
            "b": np.array([0.0, 0.0]),
            "c": np.array([5.0, 9.0]),
        }
        assert tree.route_rows(columns).tolist() == [0, 1]

    def test_resplit_leaf_raises(self):
        tree = two_level_tree()
        with pytest.raises(PartitioningError):
            tree.resplit_node(tree.leaves()[0], "a", 1.0)

    def test_invalidate_compiled_rebuilds(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        tree.invalidate_compiled()
        assert tree.compiled() is not compiled
        assert tree.block_ids() == [0, 1, 2, 3]

    def test_bottom_internal_nodes_cached(self):
        tree = two_level_tree()
        bottom = tree.bottom_internal_nodes()
        assert tree.bottom_internal_nodes() is bottom
        assert len(bottom) == 2
        assert bottom[0] is tree.root.left and bottom[1] is tree.root.right

    def test_lookup_matches_route_after_resplit(self, rng):
        tree = two_level_tree()
        tree.resplit_node(tree.root.right, "a", 75.0)
        columns = {"a": rng.uniform(0, 100, size=80), "b": rng.uniform(0, 30, size=80)}
        leaves = tree.route_rows(columns)
        block_ids = tree.block_ids()
        for index in range(80):
            predicates = [
                eq("a", float(columns["a"][index])),
                eq("b", float(columns["b"][index])),
            ]
            assert block_ids[leaves[index]] in tree.lookup(predicates)


class TestLeafBounds:
    def test_bounds_on_root_attribute(self):
        bounds = two_level_tree().leaf_bounds("a")
        assert bounds[0][1] == 50.0 and bounds[3][0] == 50.0

    def test_bounds_on_lower_attribute(self):
        bounds = two_level_tree().leaf_bounds("b")
        assert bounds[0] == (-np.inf, 10.0)
        assert bounds[3] == (20.0, np.inf)

    def test_bounds_on_absent_attribute_are_infinite(self):
        bounds = two_level_tree().leaf_bounds("missing")
        assert all(lo == -np.inf and hi == np.inf for lo, hi in bounds.values())


# --------------------------------------------------------------------- #
# Leaf boxes against the live nodes, across re-splits
# --------------------------------------------------------------------- #
SPLIT_ON = ["a", "b", "c"]
#: Few cutpoints, so repeated splits on one attribute give equal ends and
#: empty (``lo > hi``) boxes.
CUTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0])
CONSTANTS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 6.0])


def path_boxes(tree: PartitioningTree) -> list[tuple[int | None, dict[str, tuple[float, float]]]]:
    """Every leaf's block id and root-path interval per attribute, left to
    right, walked from the live nodes."""
    leaves: list = []

    def walk(node: TreeNode, box: dict[str, tuple[float, float]]) -> None:
        if node.is_leaf:
            leaves.append((node.block_id, box))
            return
        lo, hi = box.get(node.attribute, (-math.inf, math.inf))
        walk(node.left, {**box, node.attribute: (lo, min(hi, node.cutpoint))})
        walk(node.right, {**box, node.attribute: (max(lo, node.cutpoint), hi)})

    walk(tree.root, {})
    return leaves


def internal_nodes(node: TreeNode) -> list[TreeNode]:
    if node.is_leaf:
        return []
    return [node, *internal_nodes(node.left), *internal_nodes(node.right)]


@st.composite
def random_trees(draw) -> PartitioningTree:
    block_ids = itertools.count()

    def build(depth: int) -> TreeNode:
        if depth == 0 or not draw(st.booleans()):
            block_id = next(block_ids)
            return TreeNode(block_id=None if block_id % 7 == 3 else block_id)
        return TreeNode(
            attribute=draw(st.sampled_from(SPLIT_ON)), cutpoint=draw(CUTS),
            left=build(depth - 1), right=build(depth - 1),
        )

    return PartitioningTree(
        root=TreeNode(
            attribute=draw(st.sampled_from(SPLIT_ON)), cutpoint=draw(CUTS),
            left=build(3), right=build(3),
        )
    )


@st.composite
def predicate_lists(draw) -> list[Predicate]:
    """Predicates with finite, non-empty constants: each may match
    ``(-inf, inf)``, so whether an unsplit column is checked cannot matter."""
    result = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from([*SPLIT_ON, "d", "unsplit"]))
        op = draw(st.sampled_from(list(Operator)))
        if op is Operator.IN:
            members = tuple(draw(st.lists(CONSTANTS, min_size=1, max_size=3)))
            result.append(Predicate(column, op, members))
        elif op is Operator.BETWEEN:
            result.append(Predicate(column, op, draw(CONSTANTS), draw(CONSTANTS)))
        else:
            result.append(Predicate(column, op, draw(CONSTANTS)))
    return result


def walk_rows(tree: PartitioningTree, columns: dict[str, np.ndarray]) -> list[int]:
    """Each row's leaf position, walked from the live nodes one row at a
    time: ``value <= cutpoint`` goes left.  The values are numpy scalars, so
    an int64 compares against a float cutpoint as a float64, as in
    ``route_rows``."""
    position = {id(leaf): index for index, leaf in enumerate(tree.leaves())}
    leaves = []
    for row in range(len(next(iter(columns.values())))):
        node = tree.root
        while not node.is_leaf:
            node = node.left if columns[node.attribute][row] <= node.cutpoint else node.right
        leaves.append(position[id(node)])
    return leaves


def routing_rows() -> dict[str, np.ndarray]:
    """Rows for the routing oracle: the cutpoints themselves, NaN, ±inf,
    and int64 values above 2**53 (not exact as float64)."""
    rng = np.random.default_rng(0)
    floats = [-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 6.0, math.inf, math.nan]
    ints = [-(2**62), -1, 0, 1, 2, 3, 5, 6, 2**53 + 1, 2**62]
    return {
        "a": rng.choice(floats, size=64),
        "b": rng.choice(np.array(ints, dtype=np.int64), size=64),
        "c": rng.choice(floats, size=64),
        "d": rng.choice(np.array(ints, dtype=np.int64), size=64),
    }


class TestLeafBoxesAgainstThePaths:
    """``lookup`` and ``leaf_bounds`` read compiled leaf
    boxes, which ``resplit_node`` patches in place; the oracle re-walks the
    live nodes every time, so a box the patch forgot shows up at once.
    ``route_rows`` walks a fixed number of steps over the compiled nodes;
    its oracle walks the live nodes row by row."""

    def check(self, tree: PartitioningTree, predicates: list[Predicate]) -> None:
        leaves = path_boxes(tree)
        split = {node.attribute for node in internal_nodes(tree.root)}
        expected = [
            block_id
            for block_id, box in leaves
            if block_id is not None
            and all(
                p.may_match_range(*box.get(p.column, (-math.inf, math.inf)))
                for p in predicates
                if p.column in split
            )
        ]
        assert tree.lookup(predicates) == expected
        assert tree.block_ids() == [block_id for block_id, _ in leaves if block_id is not None]
        for attribute in [*SPLIT_ON, "d"]:
            assert tree.leaf_bounds(attribute) == {
                block_id: box.get(attribute, (-math.inf, math.inf))
                for block_id, box in leaves
                if block_id is not None
            }

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tree=random_trees(), data=st.data())
    def test_boxes_follow_random_resplits(self, tree, data):
        self.check(tree, data.draw(predicate_lists()))
        for _ in range(data.draw(st.integers(1, 6))):
            nodes = internal_nodes(tree.root)
            bottom = [n for n in nodes if n.left.is_leaf and n.right.is_leaf]
            # Mostly bottom nodes (patched in place), sometimes any node.
            pool = bottom if bottom and data.draw(st.integers(0, 3)) else nodes
            node = pool[data.draw(st.integers(0, len(pool) - 1))]
            attribute = data.draw(st.sampled_from([*SPLIT_ON, "d"]))
            tree.resplit_node(node, attribute, data.draw(CUTS))
            self.check(tree, data.draw(predicate_lists()))
            rows = routing_rows()
            assert tree.route_rows(rows).tolist() == walk_rows(tree, rows)
