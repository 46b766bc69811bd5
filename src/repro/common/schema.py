"""Table schemas and typed columns.

AdaptDB is a table-oriented relational storage manager.  A :class:`Schema`
describes the columns of a table; individual blocks store one numpy array per
column.  Dates are represented as integer day offsets and categorical string
columns as small integer codes — the partitioning and join machinery only
needs an ordered domain, never the string representation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np
from numpy.typing import NDArray

from .errors import SchemaError


class DataType(Enum):
    """Column data types supported by the storage engine."""

    INT = "int"
    FLOAT = "float"
    DATE = "date"       # stored as int32 day offsets
    CATEGORY = "category"  # stored as int32 dictionary codes

    @property
    def numpy_dtype(self) -> np.dtype[Any]:
        """The numpy dtype used to store values of this type."""
        if self is DataType.FLOAT:
            return np.dtype(np.float64)
        return np.dtype(np.int64)


@dataclass(frozen=True)
class Column:
    """A single named, typed column."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


@dataclass
class Schema:
    """An ordered collection of columns forming a table schema."""

    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._by_name = {column.name: column for column in self.columns}

    @classmethod
    def of(cls, *specs: tuple[str, DataType]) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs."""
        return cls([Column(name, dtype) for name, dtype in specs])

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        """Return the column named ``name``.

        Raises:
            SchemaError: if the column does not exist.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {self.column_names}") from None

    def validate_columns(self, columns: dict[str, NDArray[Any]]) -> None:
        """Check that ``columns`` matches this schema exactly.

        All arrays must be present, one-dimensional and of equal length.

        Raises:
            SchemaError: on any mismatch.
        """
        missing = set(self.column_names) - set(columns)
        extra = set(columns) - set(self.column_names)
        if missing or extra:
            raise SchemaError(f"column mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        lengths = {name: len(array) for name, array in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"columns have differing lengths: {lengths}")
        for name, array in columns.items():
            if np.ndim(array) != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
