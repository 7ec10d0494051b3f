"""``repro.core`` — the paper's contribution: post-tiling fusion.

* :mod:`footprint` — per-tile memory footprints (relation 4);
* :mod:`exposed` — upwards-exposed data extraction;
* :mod:`tile_shapes` — Algorithm 1: mixed tiling/extension schedules;
* :mod:`post_fusion` — Algorithm 2: schedule-tree rewriting;
* :mod:`compose` — Algorithm 3: multiple live-outs, shared spaces, DCE;
* :mod:`pipeline` — the ``optimize()`` entry point.
"""

from .compose import (
    composite_tiling_fusion,
    liveout_groups,
    needed_instances,
    resolve_shared_spaces,
)
from .exposed import (
    exposed_tensors,
    intermediate_groups_of,
    producers_of_tensors,
)
from .footprint import (
    TILE_TUPLE,
    footprint_size,
    tile_dim_names,
    tile_footprint,
    tile_to_instances,
)
from .pipeline import OptimizeResult, optimize
from .post_fusion import PostFusionError, apply_mixed_schedules
from .tile_shapes import (
    CPU,
    ExtensionScheduleEntry,
    GPU,
    MixedSchedules,
    NPU,
    TARGETS,
    TargetSpec,
    TilingScheduleEntry,
    construct_tile_shapes,
    effective_tile_sizes,
)

__all__ = [
    "CPU",
    "ExtensionScheduleEntry",
    "GPU",
    "MixedSchedules",
    "NPU",
    "OptimizeResult",
    "PostFusionError",
    "TARGETS",
    "TILE_TUPLE",
    "TargetSpec",
    "TilingScheduleEntry",
    "apply_mixed_schedules",
    "composite_tiling_fusion",
    "construct_tile_shapes",
    "effective_tile_sizes",
    "exposed_tensors",
    "footprint_size",
    "intermediate_groups_of",
    "liveout_groups",
    "needed_instances",
    "optimize",
    "producers_of_tensors",
    "resolve_shared_spaces",
    "tile_dim_names",
    "tile_footprint",
    "tile_to_instances",
]
