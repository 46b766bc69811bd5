"""Cluster simulation: machines and the analytical cost model."""

from .cluster import DEFAULT_NUM_MACHINES, Cluster
from .costmodel import CostModel
from .machine import Machine

__all__ = [
    "Cluster",
    "CostModel",
    "DEFAULT_NUM_MACHINES",
    "Machine",
]
