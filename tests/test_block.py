"""Tests for repro.storage.block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.predicates import between, eq, rows_matching
from repro.common.schema import DataType, Schema
from repro.common.errors import StorageError
from repro.storage.block import Block, compute_ranges, concatenate_columns


def make_block(block_id: int = 0) -> Block:
    return Block(
        block_id=block_id,
        table="t",
        columns={
            "key": np.array([1, 2, 3, 4, 5], dtype=np.int64),
            "value": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        },
    )


class TestBlock:
    def test_ranges_computed_automatically(self):
        block = make_block()
        assert block.range_of("key") == (1.0, 5.0)
        assert block.range_of("value") == (10.0, 50.0)

    def test_size_bytes_estimated(self):
        assert make_block().size_bytes == 5 * 8 * 2

    def test_num_rows(self):
        assert make_block().num_rows == 5

    def test_column_names(self):
        assert make_block().column_names == ["key", "value"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(StorageError):
            Block(0, "t", {"a": np.arange(3), "b": np.arange(4)})

    def test_missing_range_metadata_raises(self):
        with pytest.raises(StorageError):
            make_block().range_of("missing")

    def test_empty_block(self):
        block = Block(0, "t", {"a": np.empty(0, dtype=np.int64)})
        assert block.num_rows == 0
        assert block.ranges == {}

    def test_filtered_rows(self):
        columns = make_block().columns
        mask = rows_matching(columns, [between("key", 2, 4)])
        assert columns["key"][mask].tolist() == [2, 3, 4]
        assert columns["value"][mask].tolist() == [20.0, 30.0, 40.0]

    def test_filtered_without_predicates_returns_all(self):
        columns = make_block().columns
        assert columns["key"][rows_matching(columns, [])].tolist() == [1, 2, 3, 4, 5]

    def test_matching_count(self):
        assert rows_matching(make_block().columns, [eq("key", 3)]).sum() == 1
        assert rows_matching(make_block().columns, []).sum() == 5

    def test_column_access(self):
        assert make_block().column("key").tolist() == [1, 2, 3, 4, 5]
        with pytest.raises(StorageError):
            make_block().column("missing")


class TestComputeRanges:
    def test_skips_empty_columns(self):
        ranges = compute_ranges({"a": np.array([1, 5]), "b": np.empty(0)})
        assert ranges == {"a": (1.0, 5.0)}


class TestConcatenateColumns:
    def test_concatenates_row_wise(self):
        merged = concatenate_columns(
            [{"a": np.array([1, 2])}, {"a": np.array([3])}]
        )
        assert merged["a"].tolist() == [1, 2, 3]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(StorageError):
            concatenate_columns([{"a": np.array([1])}, {"b": np.array([2])}])

    def test_empty_input_with_schema_yields_typed_empty_arrays(self):
        schema = Schema.of(("a", DataType.INT), ("b", DataType.FLOAT))
        merged = concatenate_columns([], schema)
        assert merged["a"].dtype == np.int64 and len(merged["a"]) == 0
        assert merged["b"].dtype == np.float64

    def test_empty_input_without_schema(self):
        assert concatenate_columns([]) == {}
