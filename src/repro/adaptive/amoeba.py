"""Amoeba's selection-driven adaptive repartitioning (Section 3.2).

After each query, Amoeba considers alternative partitioning trees obtained by
applying local transformation rules — merge two sibling blocks currently
split on attribute ``A`` and re-split them on attribute ``B`` — and switches
to the alternative that maximizes total benefit over the query window, where
benefit is the estimated reduction in blocks read minus the repartitioning
cost.

AdaptDB keeps this mechanism for the *lower* (selection) levels of its trees;
the join levels at the top are managed by smooth repartitioning instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..common.predicates import Predicate
from ..partitioning.builders import median_cutpoint
from ..partitioning.tree import TreeNode
from ..storage.table import StoredTable
from .window import QueryWindow


@dataclass
class TransformCandidate:
    """One candidate transformation of a partitioning tree.

    Attributes:
        tree_id: Tree the transformation applies to.
        node: The internal node (parent of two leaves) to re-split.
        new_attribute: Attribute the node would be re-split on.
        new_cutpoint: Cutpoint for the new split.
        benefit: Estimated blocks saved over the window, minus the
            repartitioning cost (in block accesses).
    """

    tree_id: int
    node: TreeNode
    new_attribute: str
    new_cutpoint: float
    benefit: float


@dataclass
class AmoebaAdaptationStats:
    """Work performed by one adaptation step."""

    transforms_applied: int = 0
    blocks_repartitioned: int = 0
    rows_moved: int = 0


#: Predicate-tuple tokens, unique in the process: a token keys results in
#: a tree's bottom memo, which outlives any one adaptor's token table.
_TOKENS = itertools.count()


@dataclass
class AmoebaAdaptor:
    """Selection-driven refinement of the lower levels of partitioning trees.

    Attributes:
        repartition_cost_per_block: Cost (in block accesses) charged for
            rewriting one block, used in the benefit computation.
        max_transforms_per_query: Upper bound on transformations applied per
            incoming query; keeps adaptation incremental.
        benefit_threshold: Minimum net benefit required to apply a transform.

    Candidate enumeration runs every query over every bottom-level node, one
    attribute at a time: a tree's candidate cutpoints for an attribute and
    each window query's blocks-touched counts are arrays over its bottom
    nodes, memoized in the tree's :meth:`~PartitioningTree.bottom_memo`: the
    table sample never changes, the memo lives as long as the nodes' path
    bounds, and touched counts are keyed by the cutpoints they were taken at.
    """

    repartition_cost_per_block: float = 2.5
    max_transforms_per_query: int = 1
    benefit_threshold: float = 0.0
    _predicate_tokens: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidate_transforms(
        self, table: StoredTable, window: QueryWindow
    ) -> list[TransformCandidate]:
        """Enumerate bottom-level re-split candidates driven by window predicates."""
        predicate_counts = window.predicate_attribute_counts(table.name)
        hot_attributes = [
            attribute
            for attribute, _ in sorted(predicate_counts.items(), key=lambda item: -item[1])
            if attribute in table.sample
        ]
        if not hot_attributes:
            return []

        # Tokenize each window query's predicate tuple once and index the
        # window entries by the attributes they constrain: an entry without
        # a predicate on a split attribute always touches both leaves, so
        # only the entries indexed under it need evaluating.
        if len(self._predicate_tokens) > self._MEMO_LIMIT:
            self._predicate_tokens.clear()
        total_entries = 0
        entries_by_attr: dict[str, list[tuple[int, tuple[Predicate, ...]]]] = {}
        for query in window.queries_on(table.name):
            predicates = tuple(query.predicates_on(table.name))
            if not predicates:
                continue
            token = self._predicate_tokens.get(predicates)
            if token is None:
                token = self._predicate_tokens[predicates] = next(_TOKENS)
            total_entries += 1
            for column in sorted({predicate.column for predicate in predicates}):
                entries_by_attr.setdefault(column, []).append((token, predicates))

        ranked: list[tuple[float, int, int, int, TransformCandidate]] = []
        for tree_position, (tree_id, tree) in enumerate(table.trees.items()):
            bottom = tree.bottom_internal_nodes()
            if not bottom:
                continue
            memo = tree.bottom_memo()
            split_on = np.array([node.attribute for node, _ in bottom], dtype=object)
            current_cuts = np.array([node.cutpoint for node, _ in bottom], dtype=np.float64)
            current = np.empty(len(bottom), dtype=np.int64)
            for attribute in dict.fromkeys(split_on.tolist()):
                at = np.flatnonzero(split_on == attribute)
                current[at] = self._touched_sums(
                    memo, attribute, current_cuts[at], entries_by_attr, total_entries
                )
            # Never down-grade a join-attribute split into a selection
            # split: the join levels are managed by smooth repartitioning.
            open_nodes = split_on != tree.join_attribute
            for attribute_position, attribute in enumerate(hot_attributes):
                cuts, has_cut = self._cutpoints(memo, table, attribute, tree.root)
                proposed = self._touched_sums(
                    memo, attribute, cuts, entries_by_attr, total_entries
                )
                benefit = (current - proposed).astype(np.float64) - (
                    self.repartition_cost_per_block * 2
                )
                eligible = open_nodes & has_cut & (split_on != attribute) & (
                    benefit > self.benefit_threshold
                )
                for position in np.flatnonzero(eligible).tolist():
                    candidate = TransformCandidate(
                        tree_id=tree_id,
                        node=bottom[position][0],
                        new_attribute=attribute,
                        new_cutpoint=float(cuts[position]),
                        benefit=float(benefit[position]),
                    )
                    ranked.append(
                        (-candidate.benefit, tree_position, position, attribute_position, candidate)
                    )
        # Highest benefit first; ties in (tree, node, attribute) order.
        ranked.sort(key=lambda entry: entry[:4])
        return [entry[4] for entry in ranked]

    _MEMO_LIMIT = 16_384
    #: Touched counts kept per tree: the live set is (split attributes) ×
    #: (window entries), so this bound is only reached by stale entries.
    _TOUCHED_LIMIT = 1_024

    # ------------------------------------------------------------------ #
    # Adaptation
    # ------------------------------------------------------------------ #
    def adapt(self, table: StoredTable, window: QueryWindow) -> AmoebaAdaptationStats:
        """Apply the best beneficial transformations (at most ``max_transforms_per_query``)."""
        stats = AmoebaAdaptationStats()
        candidates = self.candidate_transforms(table, window)
        applied_nodes: set[int] = set()
        for candidate in candidates:
            if stats.transforms_applied >= self.max_transforms_per_query:
                break
            if id(candidate.node) in applied_nodes:
                continue
            moved = table.resplit(
                candidate.tree_id,
                candidate.node,
                candidate.new_attribute,
                candidate.new_cutpoint,
            )
            applied_nodes.add(id(candidate.node))
            stats.transforms_applied += 1
            stats.blocks_repartitioned += 2
            stats.rows_moved += moved
        return stats

    # ------------------------------------------------------------------ #
    # Benefit estimation
    # ------------------------------------------------------------------ #
    def _touched_sums(
        self,
        memo: dict,
        attribute: str,
        cuts: np.ndarray,
        entries_by_attr: dict[str, list[tuple[int, tuple[Predicate, ...]]]],
        total_entries: int,
    ) -> np.ndarray:
        """Σ over the window of blocks touched per node, each node split on
        ``attribute`` at ``cuts[node]``.

        Window entries without a predicate on ``attribute`` contribute a flat
        2 (both leaves read).
        """
        relevant = entries_by_attr.get(attribute, ())
        total = np.full(len(cuts), 2 * (total_entries - len(relevant)), dtype=np.int64)
        known = memo.setdefault("touched", {})
        if len(known) > self._TOUCHED_LIMIT:
            known.clear()
        at = cuts.tobytes()
        for token, predicates in relevant:
            key = (attribute, at, token)
            touched = known.get(key)
            if touched is None:
                touched = known[key] = blocks_touched(attribute, cuts, predicates)
            total += touched
        return total

    def _cutpoints(
        self,
        memo: dict,
        table: StoredTable,
        attribute: str,
        root: TreeNode,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per bottom node: the median of ``attribute`` over the table sample
        rows within the node's bounds (the whole sample when fewer than two
        are), and whether there is one.  The rows within each node's bounds
        are found once and shared by every attribute."""
        key = ("cutpoints", attribute)
        cached = memo.get(key)
        if cached is None:
            sample = table.sample
            rows = memo.get("sample_rows")
            if rows is None:
                rows = memo["sample_rows"] = _bottom_sample_rows(root, sample)
            values = sample[attribute]
            found = [
                median_cutpoint(values[within] if len(within) >= 2 else values)
                for within in rows
            ]
            cached = memo[key] = (
                np.array([math.nan if cut is None else cut for cut in found], dtype=np.float64),
                np.array([cut is not None for cut in found], dtype=bool),
            )
        return cached


def _bottom_sample_rows(root: TreeNode, sample: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Per bottom internal node, in :meth:`PartitioningTree.bottom_internal_nodes`
    order: the indices of the sample rows inside its closed path bounds.

    A child's rows are its parent's narrowed by one comparison — ``<= cut``
    on the left, ``>= cut`` on the right — which is the path-bounds test
    one attribute at a time; a NaN cutpoint or an attribute the sample lacks
    narrows nothing, as it leaves the bounds as they are.
    """
    result: list[np.ndarray] = []

    def descend(node: TreeNode, rows: np.ndarray) -> None:
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        if node.left.is_leaf and node.right.is_leaf:
            result.append(rows)
            return
        values = sample.get(node.attribute)  # type: ignore[arg-type]
        cut = node.cutpoint
        if values is None or cut is None or math.isnan(cut):
            left = right = rows
        else:
            at = values[rows]
            left, right = rows[at <= cut], rows[at >= cut]
        descend(node.left, left)
        descend(node.right, right)

    descend(root, np.arange(len(next(iter(sample.values())))))
    return result


def blocks_touched(
    attribute: str, cuts: np.ndarray, predicates: tuple[Predicate, ...]
) -> np.ndarray:
    """How many of a bottom node's two leaf blocks ``predicates`` must read,
    per node, when each node splits on ``attribute`` at ``cuts[node]``: the
    left leaf when every predicate on ``attribute`` may match ``(-inf, cut)``,
    the right one when every one may match ``(cut, inf)``."""
    left = right = True
    for predicate in predicates:
        if predicate.column == attribute:
            left = left & predicate.may_match_range(-math.inf, cuts)
            right = right & predicate.may_match_range(cuts, math.inf)
    return np.add(left, right, dtype=np.int64)
