"""``repro.deps`` — exact memory-based dependence analysis."""

from .analysis import (
    ANTI,
    Dependence,
    FLOW,
    OUTPUT,
    dep_distance_bounds,
    flow_deps,
    memory_deps,
    row_distance,
)

__all__ = [
    "ANTI",
    "Dependence",
    "FLOW",
    "OUTPUT",
    "dep_distance_bounds",
    "flow_deps",
    "memory_deps",
    "row_distance",
]
