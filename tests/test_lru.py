"""Tests for repro.common.lru: BoundedLRU key hygiene."""

from __future__ import annotations

import pytest

from repro.common.errors import PlanningError
from repro.common.lru import BoundedLRU


class TestBoundedLRUKeys:
    def test_unhashable_put_raises_planning_error(self):
        cache = BoundedLRU(capacity=4)
        with pytest.raises(PlanningError, match="not hashable"):
            cache.put(["list", "key"], "value")

    def test_unhashable_get_raises_planning_error(self):
        cache = BoundedLRU(capacity=4)
        with pytest.raises(PlanningError, match="not hashable"):
            cache.get({"dict": "key"})

    def test_hashable_keys_still_work(self):
        cache = BoundedLRU(capacity=2)
        cache.put(("a", 1), "x")
        assert cache.get(("a", 1)) == "x"
        assert cache.hits == 1
