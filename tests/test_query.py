"""Tests for repro.common.query."""

from __future__ import annotations

import pytest

from repro.common.errors import PlanningError
from repro.common.predicates import eq, gt
from repro.common.query import JoinClause, Query, join_query, scan_query


class TestJoinClause:
    clause = JoinClause("lineitem", "orders", "l_orderkey", "o_orderkey")

    def test_involves(self):
        assert self.clause.involves("lineitem")
        assert self.clause.involves("orders")
        assert not self.clause.involves("part")

    def test_column_for(self):
        assert self.clause.column_for("lineitem") == "l_orderkey"
        assert self.clause.column_for("orders") == "o_orderkey"

    def test_column_for_unknown_table(self):
        with pytest.raises(PlanningError):
            self.clause.column_for("part")


class TestQueryValidation:
    def test_requires_at_least_one_table(self):
        with pytest.raises(PlanningError):
            Query(tables=[])

    def test_predicates_must_reference_read_tables(self):
        with pytest.raises(PlanningError):
            Query(tables=["a"], predicates={"b": [eq("x", 1)]})

    def test_joins_must_reference_read_tables(self):
        with pytest.raises(PlanningError):
            Query(tables=["a"], joins=[JoinClause("a", "b", "x", "y")])

    def test_query_ids_are_unique_and_increasing(self):
        first = scan_query("a")
        second = scan_query("a")
        assert second.query_id > first.query_id


class TestQueryAccessors:
    def make_query(self) -> Query:
        return Query(
            tables=["lineitem", "orders", "customer"],
            predicates={
                "lineitem": [gt("l_shipdate", 100), eq("l_returnflag", 1)],
                "orders": [gt("o_orderdate", 50)],
            },
            joins=[
                JoinClause("lineitem", "orders", "l_orderkey", "o_orderkey"),
                JoinClause("orders", "customer", "o_custkey", "c_custkey"),
            ],
            template="q3",
        )

    def test_predicates_on_returns_copy(self):
        query = self.make_query()
        predicates = query.predicates_on("lineitem")
        predicates.clear()
        assert len(query.predicates_on("lineitem")) == 2

    def test_predicates_on_absent_table_is_empty(self):
        assert self.make_query().predicates_on("customer") == []

    def test_joins_involving(self):
        query = self.make_query()
        assert len(query.joins_involving("orders")) == 2
        assert len(query.joins_involving("customer")) == 1

    def test_join_attribute_uses_first_clause(self):
        query = self.make_query()
        assert query.join_attribute("lineitem") == "l_orderkey"
        assert query.join_attribute("orders") == "o_orderkey"
        assert query.join_attribute("customer") == "c_custkey"

    def test_join_attribute_none_for_unjoined_table(self):
        assert scan_query("lineitem").join_attribute("lineitem") is None

    def test_is_join_query(self):
        assert self.make_query().is_join_query
        assert not scan_query("lineitem").is_join_query

    def test_predicate_attributes_deduplicated_in_order(self):
        query = Query(
            tables=["t"],
            predicates={"t": [gt("a", 1), eq("b", 2), gt("a", 3)]},
        )
        assert query.predicate_attributes("t") == ["a", "b"]

    def test_describe_mentions_template_and_joins(self):
        text = self.make_query().describe()
        assert "q3" in text and "lineitem" in text and "o_custkey = customer.c_custkey" in text


class TestConvenienceConstructors:
    def test_scan_query(self):
        query = scan_query("lineitem", [eq("l_returnflag", 1)], template="scan")
        assert query.tables == ["lineitem"]
        assert not query.is_join_query
        assert query.template == "scan"

    def test_join_query(self):
        query = join_query("a", "b", "x", "y", predicates={"a": [eq("x", 1)]})
        assert query.is_join_query
        assert query.join_attribute("a") == "x"
        assert query.join_attribute("b") == "y"
