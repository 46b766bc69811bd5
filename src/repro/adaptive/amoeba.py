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


@dataclass
class AmoebaAdaptor:
    """Selection-driven refinement of the lower levels of partitioning trees.

    Attributes:
        repartition_cost_per_block: Cost (in block accesses) charged for
            rewriting one block, used in the benefit computation.
        max_transforms_per_query: Upper bound on transformations applied per
            incoming query; keeps adaptation incremental.
        benefit_threshold: Minimum net benefit required to apply a transform.

    Candidate enumeration runs every query over every bottom-level node, so
    its two pure sub-computations are memoized: candidate cutpoints (the
    table sample never changes, so a (table, attribute, bounds) key is exact)
    and the per-predicate-set block-touch counts used by the benefit
    estimate (keyed on the node's split and the query's predicate tuple).
    """

    repartition_cost_per_block: float = 2.5
    max_transforms_per_query: int = 1
    benefit_threshold: float = 0.0
    _cutpoint_cache: dict = field(default_factory=dict, repr=False)
    _touched_cache: dict = field(default_factory=dict, repr=False)
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

        # Tokenize each window query's predicate tuple once (the benefit memo
        # keys on the small integer token instead of re-hashing the predicate
        # dataclasses per candidate) and index the window entries by the
        # attributes they actually constrain: an entry without a predicate on
        # a split attribute always touches both leaves, so only the relevant
        # entries need per-cutpoint evaluation.
        self._trim_caches()
        window_predicates: list[tuple[int, tuple[Predicate, ...]]] = []
        entries_by_attr: dict[str, list[tuple[int, tuple[Predicate, ...]]]] = {}
        for query in window.queries_on(table.name):
            predicates = tuple(query.predicates_on(table.name))
            if not predicates:
                continue
            token = self._predicate_tokens.setdefault(
                predicates, len(self._predicate_tokens)
            )
            window_predicates.append((token, predicates))
            for column in sorted({predicate.column for predicate in predicates}):
                entries_by_attr.setdefault(column, []).append((token, predicates))
        total_entries = len(window_predicates)
        candidates: list[TransformCandidate] = []
        for tree_id, tree in table.trees.items():
            for node, bounds in tree.bottom_internal_nodes():
                if tree.join_attribute is not None and node.attribute == tree.join_attribute:
                    # Never down-grade a join-attribute split into a selection
                    # split: the join levels are managed by smooth repartitioning.
                    continue
                # One nested cache level per (table, bounds): attribute keys
                # are plain strings whose hashes python caches, so the hot
                # memo-hit path never re-hashes the bounds tuple.
                node_cutpoints = self._cutpoint_cache.setdefault(
                    (table.name, tuple(sorted(bounds.items()))), {}
                )
                for attribute in hot_attributes:
                    if attribute == node.attribute:
                        continue
                    cutpoint = self._cutpoint_for(table, attribute, bounds, node_cutpoints)
                    if cutpoint is None:
                        continue
                    benefit = self._estimate_benefit(
                        node, attribute, cutpoint, entries_by_attr, total_entries
                    )
                    if benefit > self.benefit_threshold:
                        candidates.append(
                            TransformCandidate(
                                tree_id=tree_id,
                                node=node,
                                new_attribute=attribute,
                                new_cutpoint=cutpoint,
                                benefit=benefit,
                            )
                        )
        candidates.sort(key=lambda candidate: -candidate.benefit)
        return candidates

    _MEMO_LIMIT = 16_384

    def _trim_caches(self) -> None:
        """Bound the memo tables for workloads with non-repeating predicates.

        ``_touched_cache`` keys on tokens issued by ``_predicate_tokens``,
        so the two must be dropped together — clearing only the tokens would
        let a reissued token alias a stale cached count.
        """
        if len(self._predicate_tokens) > self._MEMO_LIMIT or len(self._touched_cache) > self._MEMO_LIMIT:
            self._predicate_tokens.clear()
            self._touched_cache.clear()
        if len(self._cutpoint_cache) > self._MEMO_LIMIT:
            self._cutpoint_cache.clear()

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
    def _estimate_benefit(
        self,
        node: TreeNode,
        attribute: str,
        cutpoint: float,
        entries_by_attr: dict[str, list[tuple[int, tuple[Predicate, ...]]]],
        total_entries: int,
    ) -> float:
        """Blocks saved over the window if ``node`` were re-split on ``attribute``."""
        assert node.left is not None and node.right is not None
        current = self._touched_sum(node.attribute, node.cutpoint, entries_by_attr, total_entries)
        proposed = self._touched_sum(attribute, cutpoint, entries_by_attr, total_entries)
        return float(current - proposed) - self.repartition_cost_per_block * 2

    def _touched_sum(
        self,
        attribute: str | None,
        cutpoint: float | None,
        entries_by_attr: dict[str, list[tuple[int, tuple[Predicate, ...]]]],
        total_entries: int,
    ) -> int:
        """Σ over the window of blocks touched under one (attribute, cutpoint) split.

        Window entries without a predicate on ``attribute`` contribute a flat
        2 (both leaves read); only the entries indexed under ``attribute``
        need per-cutpoint evaluation.
        """
        if attribute is None or cutpoint is None:
            return 2 * total_entries
        relevant = entries_by_attr.get(attribute)
        if not relevant:
            return 2 * total_entries
        return 2 * (total_entries - len(relevant)) + sum(
            self._blocks_touched(attribute, cutpoint, predicates, token)
            for token, predicates in relevant
        )

    def _blocks_touched(
        self,
        attribute: str | None,
        cutpoint: float | None,
        predicates: tuple[Predicate, ...],
        token: int,
    ) -> int:
        """How many of a bottom node's two leaf blocks the predicates must read."""
        if attribute is None or cutpoint is None:
            return 2
        key = (attribute, cutpoint, token)
        cached = self._touched_cache.get(key)
        if cached is not None:
            return cached
        relevant = [predicate for predicate in predicates if predicate.column == attribute]
        if not relevant:
            touched = 2
        else:
            touched = 0
            if all(predicate.may_match_range(-math.inf, cutpoint) for predicate in relevant):
                touched += 1
            if all(predicate.may_match_range(cutpoint, math.inf) for predicate in relevant):
                touched += 1
            touched = max(touched, 0)
        self._touched_cache[key] = touched
        return touched

    def _cutpoint_for(
        self,
        table: StoredTable,
        attribute: str,
        bounds: dict[str, tuple[float, float]],
        memo: dict | None = None,
    ) -> float | None:
        """Median of ``attribute`` in the table sample, restricted to ``bounds``.

        The sample is fixed at load time, so results are memoized per
        ``(table, bounds)`` in ``memo`` (a nested level of
        ``_cutpoint_cache``) under the attribute name.
        """
        if memo is None:
            memo = self._cutpoint_cache.setdefault(
                (table.name, tuple(sorted(bounds.items()))), {}
            )
        if attribute in memo:
            return memo[attribute]
        sample = table.sample
        if attribute not in sample or len(sample[attribute]) == 0:
            cutpoint = None
        else:
            mask = np.ones(len(sample[attribute]), dtype=bool)
            for bounded_attribute, (lo, hi) in bounds.items():
                if bounded_attribute in sample:
                    values = sample[bounded_attribute]
                    mask &= (values >= lo) & (values <= hi)
            subset = sample[attribute][mask]
            if len(subset) < 2:
                subset = sample[attribute]
            cutpoint = median_cutpoint(subset)
        memo[attribute] = cutpoint
        return cutpoint


