"""Tables: in-memory column tables and partitioned, block-backed stored tables.

A :class:`ColumnTable` is the raw input to the storage manager (what the
paper loads from raw files on HDFS).  A :class:`StoredTable` is the managed
form: its rows live in DFS blocks, and each block belongs to exactly one
*partitioning tree*.  During smooth repartitioning a table temporarily owns
several trees (one per popular join attribute) and blocks migrate between
them; the table tracks which blocks belong to which tree and exposes the
``lookup`` used by the optimizer's cost model.

Storage statistics are kept once: ``_block_rows`` maps each block to its
row count, and the exit of :meth:`StoredTable.mutation` is its one writer (it
reads the count off every block the mutation touched).  Tree membership is
the trees' own leaf block ids.  ``total_rows``, ``rows_under_tree`` and
``non_empty_block_ids`` are sums and filters over that one dict, so they
never walk ``dfs.peek_block`` and have no copy to fall out of step with.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..common.errors import PartitioningError, StorageError
from ..common.predicates import Predicate
from ..common.schema import Schema
from ..partitioning.tree import PartitioningTree, TreeNode
from .block import Batch, Block, compute_ranges, concatenate_columns
from .dfs import DistributedFileSystem
from .sampling import DEFAULT_SAMPLE_SIZE, sample_columns


@dataclass
class ColumnTable:
    """A full table held in memory as one numpy array per column."""

    name: str
    schema: Schema
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.schema.validate_columns(self.columns)

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def sample(self, sample_size: int = DEFAULT_SAMPLE_SIZE, rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
        """Draw a row sample (see :func:`repro.storage.sampling.sample_columns`)."""
        return sample_columns(self.columns, sample_size, rng)

    def select(self, columns: list[str]) -> dict[str, np.ndarray]:
        """Return a projection onto ``columns``."""
        return {name: self.columns[name] for name in columns}


@dataclass
class RepartitionStats:
    """Bookkeeping for one block-migration operation."""

    source_blocks: int = 0
    target_blocks_touched: int = 0
    rows_moved: int = 0


class StoredTable:
    """A table managed by the AdaptDB storage engine.

    Attributes:
        name: Table name.
        schema: Table schema.
        dfs: The distributed file system holding the table's blocks.
        trees: tree_id -> partitioning tree.  Every leaf of every tree is
            bound to a DFS block (possibly empty); a tree's leaf block ids
            are the one record of which blocks it holds.
        sample: Retained row sample used to build new trees later.
        rows_per_block: Target rows per block, used to size new trees.

    The constructor takes the trees as they are and reads each leaf block's
    row count off the DFS; :meth:`load` starts from no tree, and a restored
    table passes its checkpointed trees, epoch, next tree id and each
    block's change stamp.

    Partition state (block contents, the block set, the tree set, split
    nodes) changes only inside ``with table.mutation():``.  The mutation
    primitives below record every block id they touch (a tree change
    touches the tree's blocks) and refuse to run outside one; the context's
    exit is the only place the :attr:`epoch` advances, and it stamps every
    recorded block with the new epoch and its row count.  A mutation
    therefore cannot skip its bump or leave a change unstamped.  Planning
    layers key their caches on ``(table, epoch)`` pairs: an unchanged epoch
    guarantees that block contents, block ranges and tree structure are all
    unchanged, so a cached plan replays bit-identically.  On a changed epoch
    the session plan cache replans; the hyper-plan memo and the parallel
    backend's slab ask :meth:`changed_since` which blocks changed since the
    epoch their state was built at, and reuse what they cached for the
    others.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        dfs: DistributedFileSystem,
        rows_per_block: int = 4096,
        sample: dict[str, np.ndarray] | None = None,
        trees: dict[int, PartitioningTree] | None = None,
        epoch: int = 0,
        next_tree_id: int = 0,
        written_at: dict[int, int] | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.dfs = dfs
        self.rows_per_block = rows_per_block
        self.sample = sample if sample is not None else {}
        self.trees = trees if trees is not None else {}
        self._block_to_tree = {
            block_id: tree_id
            for tree_id, tree in self.trees.items()
            for block_id in tree.block_ids()
        }
        #: block id -> its row count, written where the epoch advances.
        self._block_rows = {
            block_id: dfs.peek_block(block_id).num_rows for block_id in self._block_to_tree
        }
        self._epoch = epoch
        self._next_tree_id = next_tree_id
        #: block id -> the epoch its partition state last changed at.
        self._written_at = written_at if written_at is not None else {}
        self._empty_template: dict[str, np.ndarray] | None = None
        # Block ids the mutation in progress touched (``None`` between mutations).
        self._touched: set[int] | None = None

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    @classmethod
    def load(
        cls,
        table: ColumnTable,
        dfs: DistributedFileSystem,
        tree: PartitioningTree,
        rows_per_block: int = 4096,
        rng: np.random.Generator | None = None,
    ) -> "StoredTable":
        """Partition ``table`` with ``tree`` and store its blocks in ``dfs``.

        The tree's leaves must be unbound; they are bound to freshly created
        blocks during loading.
        """
        stored = cls(
            name=table.name,
            schema=table.schema,
            dfs=dfs,
            sample=table.sample(rng=rng),
            rows_per_block=rows_per_block,
        )
        with stored.mutation():
            stored._materialize_tree(tree, table.columns)
        return stored

    def _empty_columns(self) -> dict[str, np.ndarray]:
        """Zero-row column arrays matching the schema.

        The arrays are shared from a per-table template — zero-length arrays
        are never mutated in place (appends go to chunks, rewrites replace
        the dict), so block clears don't need fresh allocations.
        """
        if self._empty_template is None:
            self._empty_template = {
                column.name: np.empty(0, dtype=column.dtype.numpy_dtype)
                for column in self.schema.columns
            }
        return dict(self._empty_template)

    # ------------------------------------------------------------------ #
    # Partition-state epoch
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Monotonically increasing partition-state version of the table."""
        return self._epoch

    @contextmanager
    def mutation(self) -> Iterator[None]:
        """Open the one context in which partition state may change.

        The primitives record every block id they touch as they run.  On
        exit — normal or by exception, so a half-finished mutation is still
        announced — the epoch advances once if anything was recorded; then
        each recorded block still in the table is stamped with the new epoch
        and its row count is read off the block, and each one deleted loses
        both.

        Raises:
            StorageError: if a mutation is already open; they do not nest.
        """
        if self._touched is not None:
            raise StorageError(f"table {self.name!r}: mutation() does not nest")
        touched = self._touched = set()
        try:
            yield
        finally:
            self._touched = None
            if touched:
                self._epoch += 1
                peek_block = self.dfs.peek_block
                for block_id in touched:
                    if block_id in self._block_to_tree:
                        self._written_at[block_id] = self._epoch
                        self._block_rows[block_id] = peek_block(block_id).num_rows
                    else:
                        self._written_at.pop(block_id, None)
                        self._block_rows.pop(block_id, None)

    def _recording(self) -> set[int]:
        """The open mutation's touched ids; primitives call this before they write."""
        if self._touched is None:
            raise StorageError(
                f"table {self.name!r}: partition state may only change inside mutation()"
            )
        return self._touched

    def changed_since(self, block_id: int, epoch: int) -> bool:
        """Whether ``block_id``'s partition state (rows, ranges, leaf bounds)
        may differ from what it was at ``epoch``: true for a block that is
        not in the table, or was stamped after ``epoch``."""
        return self._written_at.get(block_id, epoch + 1) > epoch

    # ------------------------------------------------------------------ #
    # Mutation primitives (the only code that writes partition state)
    # ------------------------------------------------------------------ #
    def _materialize_tree(self, tree: PartitioningTree, columns: dict[str, np.ndarray]) -> int:
        """Bind ``tree``'s leaves to new blocks filled with ``columns``' rows."""
        touched = self._recording()
        # One stable sort groups the rows by leaf (each leaf keeps table
        # order).  Each leaf gathers its own arrays through its slice of the
        # order: a slice of one sorted copy would keep the whole copy alive
        # until the tree's last block is rewritten.
        num_leaves = tree.num_leaves
        if columns:
            leaf_indices = tree.route_rows(columns)
            order = np.argsort(leaf_indices, kind="stable")
            ends = np.cumsum(np.bincount(leaf_indices, minlength=num_leaves)).tolist()
            leaf_contents = [
                {name: array[order[start:end]] for name, array in columns.items()}
                for start, end in zip([0, *ends], ends)
            ]
        else:
            leaf_contents = [self._empty_columns() for _ in range(num_leaves)]
        blocks = [self.dfs.create_block(self.name, leaf_columns) for leaf_columns in leaf_contents]
        block_ids = [block.block_id for block in blocks]
        # The whole tree is named before it is registered, so a failure part
        # way through registration still bumps and stamps it.
        touched.update(block_ids)

        tree_id = self._next_tree_id
        self._next_tree_id += 1
        tree.tree_id = tree_id
        for block_id in block_ids:
            self._register_block(block_id, tree_id)
        tree.assign_block_ids(block_ids)
        self.trees[tree_id] = tree
        return tree_id

    def _register_block(self, block_id: int, tree_id: int) -> None:
        """Make a freshly created block part of the table, under ``tree_id``."""
        self._recording().add(block_id)
        self._block_to_tree[block_id] = tree_id

    def _open_block(self, block_id: int) -> Block:
        """The block about to be rewritten in place, recorded as changed."""
        self._recording().add(block_id)
        return self.dfs.peek_block(block_id)

    def _append_rows(
        self,
        block_ids: list[int],
        names: list[str],
        columns: list[np.ndarray],
        bounds: list[int],
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        """Append rows ``bounds[i]:bounds[i + 1]`` of ``columns`` (named
        ``names``) to ``block_ids[i]``, whose per-column (min, max) over
        those rows are row ``i`` of the (targets × columns) matrices
        ``lows`` / ``highs``.  The columns become one :class:`Batch`, and
        each block appends one record of it (see :meth:`Block.extend`)."""
        self._recording().update(block_ids)
        batch = Batch(dict(zip(names, columns)))
        lows, highs = np.asarray(lows, dtype=np.float64), np.asarray(highs, dtype=np.float64)
        peek_block = self.dfs.peek_block
        for position, (block_id, block_lows, block_highs) in enumerate(
            zip(block_ids, lows, highs)
        ):
            peek_block(block_id).extend(
                batch, bounds[position], bounds[position + 1], block_lows, block_highs
            )

    def _clear_block(self, block_id: int) -> None:
        """Empty a block in place (its rows have been migrated elsewhere)."""
        self._open_block(block_id).clear(self._empty_columns())

    def _rewrite_block(self, block_id: int, columns: dict[str, np.ndarray]) -> None:
        """Replace a block's contents wholesale (one side of a re-split)."""
        self._open_block(block_id).replace_columns(columns)

    def _forget_tree(self, tree_id: int) -> None:
        """Delete a tree and its blocks.

        Blocks are only ever deleted together with their tree, so there is
        no standalone block-deletion primitive.
        """
        touched = self._recording()
        block_ids = self.trees[tree_id].block_ids()
        # The whole tree is named before the first deletion, so a failure
        # part way through still stamps every block it may have lost.
        touched.update(block_ids)
        for block_id in block_ids:
            self.dfs.delete_block(block_id)
            del self._block_to_tree[block_id]
        del self.trees[tree_id]

    def audit_cached_statistics(self) -> None:
        """Verify every block's cached row count and ranges against the block.

        Ranges are recomputed from ``column_pieces()`` concatenated here, so
        the audit merges no stale column of a block.

        Raises:
            StorageError: if a cached row count or range disagrees with the
                block.

        Intended for tests and debugging; production paths never call it.
        """
        for block_id in self._block_to_tree:
            block = self.dfs.peek_block(block_id)
            actual = block.num_rows
            if self._block_rows.get(block_id) != actual:
                raise StorageError(
                    f"cached rows for block {block_id} = {self._block_rows.get(block_id)}, "
                    f"actual {actual}"
                )
            ranges = block.ranges
            expected = compute_ranges(
                {name: np.concatenate(pieces) for name, pieces in block.column_pieces().items()}
            )
            if ranges.keys() != expected.keys() or not np.array_equal(
                [ranges[name] for name in expected], list(expected.values()), equal_nan=True
            ):
                raise StorageError(
                    f"ranges of block {block_id} = {ranges}, actual {expected}"
                )

    # ------------------------------------------------------------------ #
    # Tree management
    # ------------------------------------------------------------------ #
    def add_empty_tree(self, tree: PartitioningTree) -> int:
        """Register a new (initially empty) partitioning tree.

        Every leaf is bound to a freshly created empty block; rows arrive
        later via :meth:`move_blocks`.

        Returns:
            The id assigned to the new tree.
        """
        with self.mutation():
            return self._materialize_tree(tree, {})

    def tree(self, tree_id: int) -> PartitioningTree:
        """Return the tree with the given id."""
        try:
            return self.trees[tree_id]
        except KeyError:
            raise PartitioningError(f"table {self.name!r} has no tree {tree_id}") from None

    def tree_of_block(self, block_id: int) -> int:
        """Return the id of the tree owning ``block_id``."""
        try:
            return self._block_to_tree[block_id]
        except KeyError:
            raise StorageError(f"block {block_id} does not belong to table {self.name!r}") from None

    def tree_for_join_attribute(self, attribute: str) -> int | None:
        """Id of the tree whose join attribute is ``attribute`` (or ``None``)."""
        for tree_id, tree in self.trees.items():
            if tree.join_attribute == attribute:
                return tree_id
        return None

    @property
    def num_trees(self) -> int:
        """Number of partitioning trees currently maintained."""
        return len(self.trees)

    # ------------------------------------------------------------------ #
    # Block access
    # ------------------------------------------------------------------ #
    def block_ids(self, tree_id: int | None = None) -> list[int]:
        """All block ids of the table, optionally restricted to one tree (in
        leaf order)."""
        if tree_id is None:
            return sorted(self._block_to_tree)
        tree = self.trees.get(tree_id)
        return tree.block_ids() if tree is not None else []

    def non_empty_block_ids(self, tree_id: int | None = None) -> list[int]:
        """Block ids that currently contain at least one row, sorted."""
        block_rows = self._block_rows
        candidates = block_rows if tree_id is None else self.block_ids(tree_id)
        return sorted(block_id for block_id in candidates if block_rows.get(block_id, 0))

    def lookup(
        self,
        predicates: list[Predicate] | None = None,
        tree_id: int | None = None,
        include_empty: bool = False,
    ) -> list[int]:
        """Blocks that may contain rows matching ``predicates``.

        This is the cost model's ``lookup(T, q)``: the union over the table's
        trees (or a single tree) of the tree-pruned block sets.  Empty blocks
        are excluded by default since they incur no I/O.
        """
        tree_ids = [tree_id] if tree_id is not None else list(self.trees)
        matched: list[int] = []
        for tid in tree_ids:
            matched.extend(self.tree(tid).lookup(predicates))
        if include_empty:
            return matched
        block_rows = self._block_rows
        return [block_id for block_id in matched if block_rows.get(block_id, 0) > 0]

    def rows_under_tree(self, tree_id: int) -> int:
        """Total number of rows stored under a tree."""
        block_rows = self._block_rows
        return sum(block_rows.get(block_id, 0) for block_id in self.block_ids(tree_id))

    @property
    def total_rows(self) -> int:
        """Total number of rows stored across all trees."""
        return sum(self._block_rows.values())

    # ------------------------------------------------------------------ #
    # Block migration (smooth repartitioning / full repartitioning)
    # ------------------------------------------------------------------ #
    def move_blocks(self, block_ids: list[int], target_tree_id: int) -> RepartitionStats:
        """Move the rows of ``block_ids`` into the blocks of ``target_tree_id``.

        Each source block is read, its rows are routed through the target
        tree and appended to the target tree's blocks (HDFS-append style, as
        in the paper), and the source block is emptied.  Source blocks
        already owned by the target tree are skipped.

        Returns:
            A :class:`RepartitionStats` describing the work performed.
        """
        target_tree = self.tree(target_tree_id)
        target_block_ids = target_tree.block_ids()
        stats = RepartitionStats()

        sources: list[tuple[int, Block]] = []
        for block_id in block_ids:
            if self.tree_of_block(block_id) == target_tree_id:
                continue
            source = self.dfs.peek_block(block_id)
            if source.num_rows == 0:
                continue
            sources.append((block_id, source))
        if not sources:
            return stats

        # Route the union of all source rows once, then group by target leaf
        # with one stable sort (rows keep source order, and their original
        # order within each source, inside every leaf) and compute every
        # leaf's per-column min/max with one reduceat per column.  This costs
        # O(moved rows) total instead of per-(source, leaf) python work.
        # Source blocks are streamed piece by piece (merged columns, old
        # contents and record slices) — they are about to be cleared, so
        # consolidating them first would copy every row twice.
        source_pieces = [source.column_pieces() for _, source in sources]
        names = list(source_pieces[0])
        union_columns = {}
        for name in names:
            column = [piece for pieces in source_pieces for piece in pieces[name]]
            union_columns[name] = column[0] if len(column) == 1 else np.concatenate(column)
        leaf_indices = target_tree.route_rows(union_columns)
        stats.source_blocks = len(sources)
        stats.rows_moved = len(leaf_indices)

        # Targets are the leaves that receive rows; ``bounds`` delimit each
        # one's rows in the sorted batch.  Leaf indices narrowed to the
        # smallest unsigned type sort stably by radix (up to 16 bits).
        keys = leaf_indices.astype(np.min_scalar_type(len(target_block_ids)))
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(leaf_indices, minlength=len(target_block_ids))
        leaves = np.flatnonzero(counts)
        ends = np.cumsum(counts[leaves])
        starts = ends - counts[leaves]
        bounds = [0, *ends.tolist()]
        sorted_columns = [union_columns[name][order] for name in names]
        # Per target, every column's (min, max): one reduceat per column
        # fills a column of the (targets × columns) matrices.  fmin / fmax
        # skip NaN; a target whose rows are all NaN gets NaN, which the
        # append's range merge ignores.
        lows = np.empty((len(leaves), len(names)))
        highs = np.empty((len(leaves), len(names)))
        for position, values in enumerate(sorted_columns):
            lows[:, position] = np.fmin.reduceat(values, starts)
            highs[:, position] = np.fmax.reduceat(values, starts)
        targets = [target_block_ids[leaf] for leaf in leaves.tolist()]
        # The mutation stamps the non-empty foreign sources and the target
        # leaves that received rows.
        with self.mutation():
            self._append_rows(targets, names, sorted_columns, bounds, lows, highs)
            for block_id, _ in sources:
                self._clear_block(block_id)

        stats.target_blocks_touched = len(targets)
        return stats

    def resplit(
        self, tree_id: int, node: TreeNode, attribute: str, cutpoint: float
    ) -> int:
        """Apply one Amoeba transform: re-split ``node`` and its two leaf blocks.

        ``node`` must be a bottom-level internal node of tree ``tree_id``
        (both children are leaves).  Its split becomes ``attribute <=
        cutpoint`` and the two blocks' rows are merged and redistributed
        across the new cutpoint.  If the blocks do not store ``attribute``
        (or hold no rows) no rows are rewritten.

        Returns:
            The number of rows redistributed.
        """
        left, right = node.left, node.right
        if left is None or right is None or not (left.is_leaf and right.is_leaf):
            raise PartitioningError("resplit needs a node whose two children are leaves")
        left_id, right_id = left.block_id, right.block_id
        if self.tree_of_block(left_id) != tree_id:
            raise PartitioningError(f"node is not part of tree {tree_id}")
        with self.mutation():
            self.trees[tree_id].resplit_node(node, attribute, cutpoint)
            # The two leaves' bounds changed even when no rows end up moving,
            # and a tree change is stamped on its blocks, so both blocks are
            # recorded unconditionally.
            self._recording().update((left_id, right_id))
            left_columns = self.dfs.peek_block(left_id).columns
            right_columns = self.dfs.peek_block(right_id).columns
            merged = {
                name: np.concatenate([left_columns[name], right_columns[name]])
                for name in left_columns
            }
            rows_moved = len(next(iter(merged.values()))) if merged else 0
            values = merged.get(attribute)
            if values is None or rows_moved == 0:
                return 0
            goes_left = values <= cutpoint
            self._rewrite_block(left_id, {name: array[goes_left] for name, array in merged.items()})
            self._rewrite_block(right_id, {name: array[~goes_left] for name, array in merged.items()})
            return rows_moved

    def drop_empty_trees(self) -> list[int]:
        """Remove trees that no longer hold any rows (keeping at least one tree).

        Returns:
            The ids of the removed trees.
        """
        removable = [tree_id for tree_id in self.trees if self.rows_under_tree(tree_id) == 0]
        if len(removable) == len(self.trees):
            removable = removable[:-1]
        if not removable:
            return []
        with self.mutation():
            for tree_id in removable:
                self._forget_tree(tree_id)
        return removable

    def replace_with_tree(self, tree: PartitioningTree) -> RepartitionStats:
        """Repartition the *entire* table under a single new tree.

        Used by the full-repartitioning baseline and by Amoeba-style tree
        refinement: all existing rows are read, routed through the new tree,
        and the old trees are dropped.
        """
        sources = self.non_empty_block_ids()
        all_columns = concatenate_columns(
            [self.dfs.peek_block(block_id).columns for block_id in sources], self.schema
        )
        with self.mutation():
            for tree_id in list(self.trees):
                self._forget_tree(tree_id)
            self._materialize_tree(tree, all_columns)
        rows_moved = len(next(iter(all_columns.values()))) if all_columns else 0
        return RepartitionStats(
            source_blocks=len(sources),
            target_blocks_touched=tree.num_leaves,
            rows_moved=rows_moved,
        )

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable summary of the table's trees and block counts."""
        lines = [f"table {self.name}: {self.total_rows} rows, {len(self.trees)} tree(s)"]
        for tree_id, tree in self.trees.items():
            lines.append(
                f"  tree {tree_id}: join_attribute={tree.join_attribute!r} "
                f"join_levels={tree.join_levels} blocks={len(self.block_ids(tree_id))} "
                f"rows={self.rows_under_tree(tree_id)}"
            )
        return "\n".join(lines)
