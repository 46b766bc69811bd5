"""Tests for repro.join.kernels (match counting, hash partitioning, the gather).

The three task kernels — the counting join, the one-pass partition and the
one-call gather — are each pinned against an oracle that shares no code with
them (a ``Counter`` product, boolean masks, a ``column_pieces()`` concatenation).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.join.kernels as kernels
from repro.cluster.cluster import Cluster
from repro.common.errors import StorageError
from repro.common.rng import make_rng
from repro.join.kernels import (
    DENSE_SPAN_FACTOR,
    gather_columns,
    hash_partition,
    join_match_count_arrays,
    split_by_partition,
)
from repro.storage.block import Block
from repro.storage.dfs import DistributedFileSystem
from repro.storage.persist import PersistenceManager
from repro.storage.shared_memory import SharedBlockView, _aligned
from repro.testing import reference_join_count


class TestJoinMatchCount:
    """Float keys take the sort path: multiplicities multiply per common key."""

    def test_simple_counts(self, sorted_joins):
        left = np.array([1.0, 1.0, 2.0])
        right = np.array([1.0, 2.0, 2.0, 3.0])
        # key 1: 2*1, key 2: 1*2
        assert join_match_count_arrays(left, right) == 4
        assert sorted_joins == [(3, 4)]

    def test_no_common_keys(self, sorted_joins):
        left = np.array([1.5, 2.5])
        right = np.array([0.5, 3.5])
        assert join_match_count_arrays(left, right) == 0
        assert sorted_joins == [(2, 2)]

    def test_empty_side(self, sorted_joins):
        assert join_match_count_arrays(np.empty(0), np.array([1.0])) == 0
        assert join_match_count_arrays(np.array([1.0]), np.empty(0)) == 0
        assert not sorted_joins, "an empty side is answered before any sort"

    def test_array_wrapper_matches_bruteforce(self, rng):
        left = rng.integers(0, 50, size=300)
        right = rng.integers(0, 50, size=200)
        brute = sum(int((right == key).sum()) for key in left)
        assert join_match_count_arrays(left, right) == brute

    def test_symmetry(self, rng):
        left = rng.integers(0, 30, size=100)
        right = rng.integers(0, 30, size=150)
        assert join_match_count_arrays(left, right) == join_match_count_arrays(right, left)


class TestHashPartition:
    def test_assignment_in_range(self, rng):
        keys = rng.integers(0, 10_000, size=1000)
        parts = hash_partition(keys, 7)
        assert parts.min() >= 0 and parts.max() < 7

    def test_same_key_same_partition(self):
        keys = np.array([42, 42, 42, 7, 7])
        parts = hash_partition(keys, 5)
        assert len(set(parts[:3].tolist())) == 1
        assert len(set(parts[3:].tolist())) == 1

    def test_negative_keys_supported(self):
        parts = hash_partition(np.array([-10, -3, 5]), 4)
        assert (parts >= 0).all()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            hash_partition(np.array([1]), 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_keys_partition_like_their_int64_values(self, rng):
        """No float key is cast to int64: NaN, ±inf and keys beyond int64 get
        a partition, and the rest go where their int64 value goes."""
        keys = rng.uniform(-1e6, 1e6, size=500)
        keys[:3] = (-7.5, 2.0**62 + 2.0**20, -(2.0**62))
        assert np.array_equal(hash_partition(keys, 7), hash_partition(keys.astype(np.int64), 7))
        odd = np.array([np.nan, np.inf, -np.inf, 1e20, -1e20])
        assert set(hash_partition(odd, 7).tolist()) <= set(range(7))

    def test_partitions_are_reasonably_balanced(self, rng):
        keys = rng.integers(0, 1_000_000, size=10_000)
        counts = np.bincount(hash_partition(keys, 10), minlength=10)
        assert counts.min() > 0.5 * counts.mean()


class TestGatherColumns:
    def test_concatenates_across_blocks(self):
        blocks = [
            Block(0, "t", {"k": np.array([1, 2], dtype=np.int64)}),
            Block(1, "t", {"k": np.array([3], dtype=np.int64)}),
        ]
        assert gather_columns(blocks, ["k"])["k"].tolist() == [1, 2, 3]

    def test_empty_batch_preserves_source_dtype(self):
        """A float column must stay float even when no block holds rows."""
        empty = Block(0, "t", {"v": np.empty(0, dtype=np.float64)})
        gathered = gather_columns([empty], ["v"])
        assert gathered["v"].dtype == np.float64
        assert len(gathered["v"]) == 0

    def test_no_blocks_at_all_defaults_to_int64(self):
        gathered = gather_columns([], ["k"])
        assert gathered["k"].dtype == np.int64 and len(gathered["k"]) == 0

    def test_streams_pending_chunks_in_row_order(self):
        block = Block(0, "t", {"k": np.array([1, 2], dtype=np.int64)})
        block.append_rows({"k": np.array([3, 4], dtype=np.int64)})
        assert gather_columns([block], ["k"])["k"].tolist() == [1, 2, 3, 4]


# --------------------------------------------------------------------- #
# The counting join
# --------------------------------------------------------------------- #
def counter_join(left, right) -> int:
    """Equi-join cardinality as a product of two Python multisets."""
    left_counts, right_counts = Counter(left.tolist()), Counter(right.tolist())
    return sum(count * right_counts[key] for key, count in left_counts.items())


@pytest.fixture
def sorted_joins(monkeypatch) -> list:
    """Every fall-through to the sort path, as ``(build rows, probe rows)``."""
    calls: list = []

    sort = kernels._sorted_match_count

    def recording(build_keys, probe_keys):
        calls.append((len(build_keys), len(probe_keys)))
        return sort(build_keys, probe_keys)

    monkeypatch.setattr(kernels, "_sorted_match_count", recording)
    return calls


KEY_DTYPES = (np.int64, np.int32, np.uint16, np.float64)


@st.composite
def key_pairs(draw):
    """Two key arrays of independent dtypes around a common offset and width."""
    offset = draw(st.sampled_from([0, -7, 50, 1000]))
    width = draw(st.sampled_from([1, 3, 40, 5000]))
    sides = []
    for _ in range(2):
        dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
        values = draw(st.lists(st.integers(0, width), max_size=40))
        keys = np.array(values, dtype=np.int64) + offset
        sides.append((np.abs(keys) if dtype.kind == "u" else keys).astype(dtype))
    return sides


class TestCountingJoin:
    @given(key_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_counter_product(self, pair):
        left, right = pair
        assert join_match_count_arrays(left, right) == counter_join(left, right)
        assert join_match_count_arrays(right, left) == counter_join(left, right)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_one_empty_side_and_all_equal_keys(self, dtype):
        keys = np.full(9, 5, dtype=dtype)
        assert join_match_count_arrays(keys, np.empty(0, dtype=dtype)) == 0
        assert join_match_count_arrays(np.empty(0, dtype=dtype), keys) == 0
        assert join_match_count_arrays(keys, keys[:4]) == 36

    @pytest.mark.parametrize("excess, sorts", [(0, False), (1, True)])
    def test_both_sides_of_the_dense_threshold_agree(self, sorted_joins, excess, sorts):
        """A span of exactly the bound is counted; one slot more is sorted."""
        rows = 10
        span = DENSE_SPAN_FACTOR * 2 * rows + excess
        inner = np.arange(1, rows - 1, dtype=np.int64) * 7 - 100
        build = np.concatenate([[-100], inner, [-100 + span - 1]])
        probe = build[::-1].copy()
        assert join_match_count_arrays(build, probe) == counter_join(build, probe) == rows
        assert bool(sorted_joins) is sorts

    def test_float_keys_take_the_sort_path(self, sorted_joins):
        keys = np.array([1.5, 2.0, 2.0])
        assert join_match_count_arrays(keys, keys) == 5
        assert sorted_joins == [(3, 3)]

    def test_keys_at_the_ends_of_int64(self, sorted_joins):
        """The span is a Python int: 2**63 slots are sparse, not an overflow."""
        far = np.array([-(2**62), -(2**62), 0, 2**62], dtype=np.int64)
        assert join_match_count_arrays(far, far) == 6
        assert sorted_joins == [(4, 4)]
        near = np.array([2**62, 2**62 + 3], dtype=np.int64)
        assert join_match_count_arrays(far, near) == 1  # the shared range is one slot
        assert join_match_count_arrays(far, -near) == 2
        assert sorted_joins == [(4, 4)]

    def test_a_dense_range_at_an_end_of_int64_is_sorted(self, sorted_joins):
        """Dense keys are clipped onto a pad slot on each side of the shared
        range; at an end of int64 there is no room for one."""
        info = np.iinfo(np.int64)
        low = np.array([info.min, info.min, info.min + 1], dtype=np.int64)
        high = np.array([info.max - 1, info.max, info.max], dtype=np.int64)
        assert join_match_count_arrays(low, low[::-1].copy()) == 5
        assert join_match_count_arrays(high, high) == 5
        assert sorted_joins == [(3, 3), (3, 3)]
        inside = np.array([info.min + 1, info.min + 2], dtype=np.int64)
        assert join_match_count_arrays(low, inside) == 1  # room for both pads
        assert sorted_joins == [(3, 3), (3, 3)]

    def test_uint64_keys_beyond_int64_are_sorted_not_wrapped(self, sorted_joins):
        keys = np.array([2**63 + 1, 2**63 + 1, 5], dtype=np.uint64)
        assert join_match_count_arrays(keys, keys) == 5
        assert sorted_joins == [(3, 3)]

    def test_equals_the_reference_on_a_tpch_pair(self, tpch_tables, sorted_joins):
        lineitem, orders = tpch_tables["lineitem"], tpch_tables["orders"]
        expected = reference_join_count(lineitem, orders, "l_orderkey", "o_orderkey")
        counted = join_match_count_arrays(
            orders.columns["o_orderkey"], lineitem.columns["l_orderkey"]
        )
        assert counted == expected > 0
        assert not sorted_joins, "TPC-H order keys are dense enough to count"


# --------------------------------------------------------------------- #
# The one-pass partition
# --------------------------------------------------------------------- #
class TestSplitByPartition:
    @given(
        st.lists(st.integers(-(2**40), 2**40), max_size=60),
        st.sampled_from([np.int64, np.int32, np.uint16]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_the_boolean_masks_for_every_partition_count(self, values, dtype):
        keys = np.array(values, dtype=np.int64).astype(dtype)
        for num_partitions in range(1, 18):
            assignment = hash_partition(keys, num_partitions)
            parts = split_by_partition(keys, num_partitions)
            assert len(parts) == num_partitions
            for partition, part in enumerate(parts):
                expected = keys[assignment == partition]
                if len(expected) == 0:
                    expected = np.empty(0, dtype=np.int64)  # an untouched partition
                assert part.dtype == expected.dtype
                assert np.array_equal(part, expected)  # same keys in the same order

    def test_more_partitions_than_a_byte_holds(self, rng):
        keys = rng.integers(-10_000, 10_000, size=5_000)
        assignment = hash_partition(keys, 300)
        for partition, part in enumerate(split_by_partition(keys, 300)):
            assert part.tolist() == keys[assignment == partition].tolist()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            split_by_partition(np.array([1]), 0)


# --------------------------------------------------------------------- #
# The one-call gather
# --------------------------------------------------------------------- #
def pieces_of(reader, name: str) -> list:
    """A reader's storage pieces of column ``name``, consolidating nothing."""
    if isinstance(reader, Block):
        return reader.column_pieces().get(name, [])
    return [reader.columns[name]] if reader.num_rows else []


def parts_oracle(readers, names) -> dict[str, np.ndarray]:
    """Per-piece streaming: the gather this repository used to run."""
    return {
        name: np.concatenate([piece for reader in readers for piece in pieces_of(reader, name)])
        for name in names
    }


def shared_view(block_id: int, columns: dict[str, np.ndarray]) -> SharedBlockView:
    """A worker-side view over a private read-only buffer laid out like a slot."""
    pinned = tuple((name, array.dtype.str) for name, array in columns.items())
    num_rows = len(next(iter(columns.values())))
    ends = np.cumsum([_aligned(array.nbytes) for array in columns.values()]).tolist()
    offsets = tuple([0, *ends[:-1]])
    buffer = bytearray(ends[-1])
    for offset, array in zip(offsets, columns.values()):
        np.frombuffer(buffer, dtype=array.dtype, count=num_rows, offset=offset)[:] = array
    slot = (num_rows, offsets)
    return SharedBlockView(block_id, slot, pinned, memoryview(buffer).toreadonly())


def two_columns(rng, num_rows: int) -> dict[str, np.ndarray]:
    return {
        "k": rng.integers(-50, 50, size=num_rows),
        "v": rng.uniform(0, 1, size=num_rows),
    }


class TestGatherAgainstThePartsOracle:
    @pytest.fixture
    def mixed_batch(self, rng, tmp_path):
        """Consolidated, multi-chunk, empty, shared-memory and mmap-backed
        readers (one of those with rows appended after it was unloaded)."""
        manager = PersistenceManager(Path(tmp_path / "store"), 1)
        dfs = DistributedFileSystem(cluster=Cluster(num_machines=1), rng=make_rng(1))
        manager.attach(dfs)
        mapped = [dfs.create_block("t", two_columns(rng, rows)) for rows in (7, 4)]
        for block in mapped:
            manager.buffer.bind(block, manager.store.spill(block))
            block.unload()
        mapped[1].append_rows(two_columns(rng, 3))
        chunked = Block(10, "t", two_columns(rng, 5))
        for num_rows in (2, 6, 1):
            chunked.append_rows(two_columns(rng, num_rows))
        grown_from_empty = Block(11, "t", two_columns(rng, 0))
        grown_from_empty.append_rows(two_columns(rng, 3))
        yield [
            Block(12, "t", two_columns(rng, 6)),
            chunked,
            Block(13, "t", two_columns(rng, 0)),
            mapped[0],
            shared_view(14, two_columns(rng, 5)),
            grown_from_empty,
            shared_view(15, two_columns(rng, 0)),
            mapped[1],
        ]
        manager.close()

    def test_mixed_batch_equals_the_oracle_and_compacts_what_it_read(self, mixed_batch):
        expected = parts_oracle(mixed_batch, ["v", "k"])
        assert not mixed_batch[3].columns["k"].flags.writeable  # a file mapping
        assert sum(len(pieces_of(reader, "k")) for reader in mixed_batch) == 10
        gathered = gather_columns(mixed_batch, ["v", "k"])
        assert list(gathered) == ["v", "k"]
        for name, array in expected.items():
            assert gathered[name].dtype == array.dtype
            assert gathered[name].tobytes() == array.tobytes()
        blocks = [reader for reader in mixed_batch if isinstance(reader, Block)]
        assert all(block.pending_columns == {} for block in blocks)
        assert sum(len(pieces_of(reader, "k")) for reader in mixed_batch) == 6
        again = gather_columns(mixed_batch, ["v", "k"])
        assert all(again[name].tobytes() == gathered[name].tobytes() for name in again)

    def test_an_all_empty_batch_keeps_the_source_dtype(self, rng):
        batch = [shared_view(0, two_columns(rng, 0)), Block(1, "t", two_columns(rng, 0))]
        gathered = gather_columns(batch, ["v", "k", "absent"])
        assert {name: array.dtype for name, array in gathered.items()} == {
            "v": np.float64, "k": np.int64, "absent": np.int64,
        }
        assert all(len(array) == 0 for array in gathered.values())

    @pytest.mark.parametrize("make", [shared_view, lambda i, c: Block(i, "t", c)])
    def test_a_missing_column_is_a_typed_error_naming_it(self, rng, make):
        batch = [make(0, two_columns(rng, 3)), make(1, two_columns(rng, 0))]
        with pytest.raises(StorageError, match="no column 'absent'"):
            gather_columns(batch, ["k", "absent"])

    def test_one_concatenate_per_column_over_all_blocks(self, rng, monkeypatch):
        """The timing-free form of the gather's cost: over ``n`` non-empty
        consolidated blocks every ``np.concatenate`` receives exactly ``n``
        arrays, so per-part (or per-block) streaming cannot drift back."""
        batch = [Block(i, "t", two_columns(rng, i % 4)) for i in range(12)]
        batch[5].append_rows(two_columns(rng, 2))
        gather_columns(batch, ["k", "v"])  # the first read compacts block 5
        non_empty = sum(1 for block in batch if block.num_rows)
        received: list[int] = []
        concatenate = np.concatenate

        def recording(arrays, *args, **kwargs):
            received.append(len(arrays))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "concatenate", recording)
        gather_columns(batch, ["k", "v"])
        assert received == [non_empty, non_empty]
