"""AdaptDB core: configuration, planner and the cost-based optimizer."""

from .config import AdaptDBConfig
from .optimizer import JoinDecision, Optimizer, QueryPlan
from .planner import JoinCase, JoinClassification, JoinMethod, classify_join

__all__ = [
    "AdaptDBConfig",
    "JoinCase",
    "JoinClassification",
    "JoinDecision",
    "JoinMethod",
    "Optimizer",
    "QueryPlan",
    "classify_join",
]
