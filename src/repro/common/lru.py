"""A small bounded LRU map with hit/miss counters.

Shared by the session plan cache (:data:`repro.api.cache.PlanCache`, used
as is: exact-match lookups only) and the optimizer's hyper-plan memo
(:class:`repro.join.hyperjoin.HyperPlanCache`), so the recency/eviction/
statistics mechanics exist exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, TypeVar

from .errors import PlanningError

K = TypeVar("K")
V = TypeVar("V")


@dataclass
class BoundedLRU(Generic[K, V]):
    """A dict bounded to ``capacity`` entries with least-recently-used eviction.

    Attributes:
        capacity: Maximum number of entries; ``0`` disables storage (every
            ``get`` misses, ``put`` is a no-op).
        hits / misses: Lookup counters since construction.

    Keys must be hashable; a non-hashable key (a cache-key builder leaking
    a list or dict) raises :class:`~repro.common.errors.PlanningError`
    rather than a bare ``TypeError``, so cache misuse is reported in the
    library's own vocabulary.
    """

    capacity: int = 64
    hits: int = 0
    misses: int = 0
    _entries: dict[K, V] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @staticmethod
    def _check_key(key: K) -> None:
        # dict.pop(key, default) short-circuits on an empty dict without
        # hashing, so hash explicitly to reject bad keys deterministically.
        try:
            hash(key)
        except TypeError as exc:
            raise PlanningError(f"cache key is not hashable: {exc}") from exc

    def get(self, key: K) -> V | None:
        """Return the value for ``key`` (refreshing its recency) or ``None``."""
        self._check_key(key)
        value = self._entries.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self._entries[key] = value  # refresh recency
        self.hits += 1
        return value

    def peek(self, key: K) -> V | None:
        """Return the value for ``key`` without recency or counter updates.

        Used by the hyper-plan memo's upgrade, which inspects a stale
        entry it is about to replace — inspecting it is neither a hit nor a
        miss.
        """
        self._check_key(key)
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert ``value`` under ``key``, evicting least-recently-used entries."""
        if self.capacity <= 0:
            return
        self._check_key(key)
        self._entries.pop(key, None)
        while len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
