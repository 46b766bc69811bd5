"""Tests for repro.common.schema."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import SchemaError
from repro.common.schema import Column, DataType, Schema


class TestDataType:
    def test_int_maps_to_int64(self):
        assert DataType.INT.numpy_dtype == np.dtype(np.int64)

    def test_float_maps_to_float64(self):
        assert DataType.FLOAT.numpy_dtype == np.dtype(np.float64)

    def test_date_is_stored_as_integer(self):
        assert DataType.DATE.numpy_dtype == np.dtype(np.int64)

    def test_category_is_stored_as_integer(self):
        assert DataType.CATEGORY.numpy_dtype == np.dtype(np.int64)


class TestColumn:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.INT)

    def test_columns_are_hashable_value_objects(self):
        assert Column("a", DataType.INT) == Column("a", DataType.INT)
        assert len({Column("a", DataType.INT), Column("a", DataType.INT)}) == 1


class TestSchema:
    def make_schema(self) -> Schema:
        return Schema.of(("id", DataType.INT), ("price", DataType.FLOAT), ("day", DataType.DATE))

    def test_of_builds_ordered_columns(self):
        schema = self.make_schema()
        assert schema.column_names == ["id", "price", "day"]
        assert len(schema) == 3

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("id", DataType.INT), ("id", DataType.FLOAT))

    def test_contains(self):
        schema = self.make_schema()
        assert "price" in schema
        assert "missing" not in schema

    def test_column_lookup(self):
        schema = self.make_schema()
        assert schema.column("price").dtype is DataType.FLOAT

    def test_column_lookup_unknown_raises(self):
        with pytest.raises(SchemaError, match="unknown column"):
            self.make_schema().column("missing")

    def test_validate_columns_accepts_matching_arrays(self):
        schema = self.make_schema()
        schema.validate_columns(
            {
                "id": np.arange(5),
                "price": np.ones(5),
                "day": np.zeros(5, dtype=np.int64),
            }
        )

    def test_validate_columns_rejects_missing_column(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError, match="missing"):
            schema.validate_columns({"id": np.arange(5), "price": np.ones(5)})

    def test_validate_columns_rejects_extra_column(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError, match="extra"):
            schema.validate_columns(
                {
                    "id": np.arange(5),
                    "price": np.ones(5),
                    "day": np.zeros(5),
                    "bonus": np.zeros(5),
                }
            )

    def test_validate_columns_rejects_ragged_lengths(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError, match="differing lengths"):
            schema.validate_columns(
                {"id": np.arange(5), "price": np.ones(4), "day": np.zeros(5)}
            )

    def test_validate_columns_rejects_two_dimensional_arrays(self):
        schema = self.make_schema()
        with pytest.raises(SchemaError, match="one-dimensional"):
            schema.validate_columns(
                {"id": np.arange(4).reshape(2, 2), "price": np.ones(2), "day": np.zeros(2)}
            )
