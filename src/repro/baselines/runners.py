"""Workload runners for AdaptDB and the configuration-only baselines.

All comparison systems in the paper's evaluation execute the same query
sequences; they differ in how data is partitioned, whether the layout adapts,
and which join algorithm is used.  Every runner in this package exposes the
same two-method interface::

    runner = FullScanBaseline(tables)
    results = runner.run_workload(queries)    # list[QueryResult]

Runners in this module are thin configuration presets over one
:class:`repro.api.Session` each — the preset is a dict of
:class:`~repro.core.config.AdaptDBConfig` overrides plus an "adapt" flag, so
the engine wiring lives in exactly one place (the session):

* :class:`AdaptDBRunner` — the full system (smooth repartitioning + Amoeba
  refinement + cost-based hyper/shuffle choice),
* :class:`AdaptDBShuffleOnlyRunner` — AdaptDB's partitioning but shuffle
  joins only ("AdaptDB w/ Shuffle Join" in Figure 12),
* :class:`FullScanBaseline` — no pruning, no adaptation, shuffle joins
  ("Full Scan" in Figures 13 and 18),
* :class:`AmoebaBaseline` — selection-only adaptation with shuffle joins
  (the prior system AdaptDB builds on, compared in Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Protocol

from ..api.session import Session
from ..common.query import Query
from ..core.config import AdaptDBConfig
from ..exec.result import QueryResult
from ..storage.table import ColumnTable


class WorkloadRunner(Protocol):
    """Anything that can execute a list of queries and report per-query results."""

    name: str

    def run_workload(self, queries: list[Query]) -> list[QueryResult]:
        """Run the queries in order and return one result per query."""
        ...  # pragma: no cover - protocol definition


def build_session(tables: list[ColumnTable], config: AdaptDBConfig) -> Session:
    """Create a session and load ``tables`` with upfront partitioning."""
    session = Session(config=config)
    for table in tables:
        session.load_table(table)
    return session


@dataclass
class ConfiguredRunner:
    """Base for runners that are a config preset over one session.

    Subclasses set ``config_overrides`` (applied with ``dataclasses.replace``
    on top of the caller's config) and ``adapt`` (whether the workload runs
    with per-query adaptation).
    """

    tables: list[ColumnTable]
    config: AdaptDBConfig = field(default_factory=AdaptDBConfig)
    name: str = "AdaptDB"
    session: Session = field(init=False)
    config_overrides: ClassVar[dict] = {}
    adapt: ClassVar[bool] = True

    def __post_init__(self) -> None:
        config = (
            replace(self.config, **self.config_overrides)
            if self.config_overrides
            else self.config
        )
        self.session = build_session(self.tables, config)

    def run_workload(self, queries: list[Query]) -> list[QueryResult]:
        """Run the workload under this runner's configuration preset."""
        return self.session.run_workload(queries, adapt=self.adapt)


@dataclass
class AdaptDBRunner(ConfiguredRunner):
    """The full AdaptDB system."""

    name: str = "AdaptDB"


@dataclass
class AdaptDBShuffleOnlyRunner(ConfiguredRunner):
    """AdaptDB's adaptive partitioning, but every join runs as a shuffle join."""

    name: str = "AdaptDB w/ Shuffle Join"
    config_overrides: ClassVar[dict] = {"force_join_method": "shuffle"}


@dataclass
class FullScanBaseline(ConfiguredRunner):
    """No partition pruning, no adaptation, shuffle joins everywhere."""

    name: str = "Full Scan"
    config_overrides: ClassVar[dict] = {
        "enable_pruning": False,
        "enable_smooth": False,
        "enable_amoeba": False,
        "force_join_method": "shuffle",
    }
    adapt: ClassVar[bool] = False


@dataclass
class AmoebaBaseline(ConfiguredRunner):
    """Amoeba [21]: selection-driven adaptation only, joins always shuffle."""

    name: str = "Amoeba"
    config_overrides: ClassVar[dict] = {
        "enable_smooth": False,
        "enable_amoeba": True,
        "force_join_method": "shuffle",
    }
