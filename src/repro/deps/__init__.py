"""``repro.deps`` — exact memory-based dependence analysis."""

from .analysis import (
    ANTI,
    Dependence,
    FLOW,
    OUTPUT,
    dep_distance_bounds,
    deps_as_union_map,
    flow_deps,
    memory_deps,
    producer_consumer_tensors,
    row_distance,
    statement_row_map,
)

__all__ = [
    "ANTI",
    "Dependence",
    "FLOW",
    "OUTPUT",
    "dep_distance_bounds",
    "deps_as_union_map",
    "flow_deps",
    "memory_deps",
    "producer_consumer_tensors",
    "row_distance",
    "statement_row_map",
]
