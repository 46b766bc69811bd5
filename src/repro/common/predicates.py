"""Selection predicates.

A predicate constrains a single column (``col <op> value``).  Predicates are
used in three places, mirroring the paper:

* block pruning — a partitioning tree ``lookup`` only descends into subtrees
  whose value range can satisfy the predicate,
* row filtering — the executor applies the predicate to the column arrays of
  every surviving block,
* adaptation hints — the Amoeba adaptor derives candidate tree transforms
  from the predicate attributes seen in the query window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Union

import numpy as np
from numpy.typing import NDArray

from .errors import PlanningError

#: An interval end: a scalar, or an array of them (one interval per entry).
Bound = Union[float, NDArray[np.float64]]


class Operator(Enum):
    """Comparison operators supported in selection predicates."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"  # inclusive on both ends
    IN = "in"


@dataclass(frozen=True)
class Predicate:
    """A single-column selection predicate.

    Attributes:
        column: Name of the column the predicate applies to.
        op: Comparison operator.
        value: Comparison value.  For ``BETWEEN`` this is the lower bound and
            for ``IN`` a tuple of admissible values.
        high: Upper bound, only used by ``BETWEEN``.
    """

    column: str
    op: Operator
    value: float | tuple[float, ...]
    high: float | None = None

    def __post_init__(self) -> None:
        if self.op is Operator.BETWEEN and self.high is None:
            raise PlanningError("BETWEEN predicate requires a high bound")
        if self.op is Operator.IN and not isinstance(self.value, tuple):
            raise PlanningError("IN predicate requires a tuple of values")

    # ------------------------------------------------------------------ #
    # Block-level pruning
    # ------------------------------------------------------------------ #
    def may_match_range(self, lo: Bound, hi: Bound) -> Any:
        """Whether *any* value in the closed interval [lo, hi] can satisfy this predicate.

        Used to prune blocks and tree subtrees: where the result is false the
        block cannot contain qualifying rows and may be skipped.  ``lo`` and
        ``hi`` are scalars (a ``bool`` comes back) or broadcastable arrays (a
        boolean array comes back, one answer per interval); a NaN bound may
        always match.  The expressions are plain comparisons combined with
        ``&`` / ``|``, so both forms run the same code.
        """
        op, value = self.op, self.value
        if op is Operator.IN:
            assert isinstance(value, tuple)
            match: Any = False
            for member in value:
                match = match | ((lo <= member) & (member <= hi))
        else:
            assert not isinstance(value, tuple)  # only IN carries a tuple
            if op is Operator.EQ:
                match = (lo <= value) & (value <= hi)
            elif op is Operator.NE:
                match = (lo != value) | (hi != value)
            elif op is Operator.LT:
                match = lo < value
            elif op is Operator.LE:
                match = lo <= value
            elif op is Operator.GT:
                match = hi > value
            elif op is Operator.GE:
                match = hi >= value
            elif op is Operator.BETWEEN:
                assert self.high is not None
                match = (hi >= value) & (lo <= self.high)
            else:
                raise PlanningError(f"unsupported operator {op}")
        return match | (lo != lo) | (hi != hi)  # x != x only for NaN

    # ------------------------------------------------------------------ #
    # Row-level filtering
    # ------------------------------------------------------------------ #
    def mask(self, values: NDArray[Any]) -> NDArray[np.bool_]:
        """Return a boolean mask of rows in ``values`` satisfying the predicate."""
        if self.op is Operator.IN:
            # An OR of equalities: for a handful of members this beats the
            # sort behind ``isin`` by an order of magnitude.
            assert isinstance(self.value, tuple)
            mask = np.zeros(len(values), dtype=bool)
            for member in self.value:
                mask |= values == member
            return mask
        value = self.value
        assert not isinstance(value, tuple)  # only IN carries a tuple
        if self.op is Operator.EQ:
            return np.asarray(values == value, dtype=bool)
        if self.op is Operator.NE:
            return np.asarray(values != value, dtype=bool)
        if self.op is Operator.LT:
            return np.asarray(values < value, dtype=bool)
        if self.op is Operator.LE:
            return np.asarray(values <= value, dtype=bool)
        if self.op is Operator.GT:
            return np.asarray(values > value, dtype=bool)
        if self.op is Operator.GE:
            return np.asarray(values >= value, dtype=bool)
        if self.op is Operator.BETWEEN:
            assert self.high is not None
            return np.asarray((values >= value) & (values <= self.high), dtype=bool)
        raise PlanningError(f"unsupported operator {self.op}")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        if self.op is Operator.BETWEEN:
            return f"{self.column} BETWEEN {self.value} AND {self.high}"
        if self.op is Operator.IN:
            return f"{self.column} IN {self.value}"
        return f"{self.column} {self.op.value} {self.value}"


def rows_matching(
    columns: dict[str, NDArray[Any]], predicates: list[Predicate]
) -> NDArray[np.bool_]:
    """Return a boolean mask selecting rows of ``columns`` matching all ``predicates``.

    An empty predicate list matches every row.

    Raises:
        PlanningError: if ``predicates`` is non-empty but ``columns`` is an
            empty dict — a miswired caller lost its projection, and silently
            returning an all-false mask would hide that.
    """
    if not columns:
        if predicates:
            raise PlanningError(
                "cannot evaluate predicates "
                f"({', '.join(str(p) for p in predicates)}) without any columns"
            )
        return np.zeros(0, dtype=bool)
    mask: NDArray[np.bool_] | None = None
    for predicate in predicates:
        if predicate.column not in columns:
            raise PlanningError(f"predicate column {predicate.column!r} not present in data")
        term = predicate.mask(columns[predicate.column])  # fresh: ours to narrow
        mask = term if mask is None else np.logical_and(mask, term, out=mask)
    if mask is None:
        return np.ones(len(next(iter(columns.values()))), dtype=bool)
    return mask


def block_may_match(ranges: dict[str, tuple[float, float]], predicates: list[Predicate]) -> bool:
    """Return whether a block with per-column ``ranges`` may satisfy all ``predicates``.

    Columns without range metadata are conservatively assumed to match.
    """
    for predicate in predicates:
        column_range = ranges.get(predicate.column)
        if column_range is None:
            continue
        if not predicate.may_match_range(*column_range):
            return False
    return True


# Convenience constructors ------------------------------------------------- #

def eq(column: str, value: float) -> Predicate:
    """``column == value``"""
    return Predicate(column, Operator.EQ, value)


def lt(column: str, value: float) -> Predicate:
    """``column < value``"""
    return Predicate(column, Operator.LT, value)


def le(column: str, value: float) -> Predicate:
    """``column <= value``"""
    return Predicate(column, Operator.LE, value)


def gt(column: str, value: float) -> Predicate:
    """``column > value``"""
    return Predicate(column, Operator.GT, value)


def ge(column: str, value: float) -> Predicate:
    """``column >= value``"""
    return Predicate(column, Operator.GE, value)


def between(column: str, low: float, high: float) -> Predicate:
    """``low <= column <= high``"""
    return Predicate(column, Operator.BETWEEN, low, high)


def isin(column: str, values: tuple[float, ...]) -> Predicate:
    """``column IN values``"""
    return Predicate(column, Operator.IN, tuple(values))
