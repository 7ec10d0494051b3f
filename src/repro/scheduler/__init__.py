"""``repro.scheduler`` — start-up scheduling: fusion heuristics and tiling."""

from .fusion import (
    HEURISTICS,
    HYBRIDFUSE,
    MAXFUSE,
    MINFUSE,
    SMARTFUSE,
    Scheduled,
    SchedulerError,
    schedule_program,
)
from .parallelism import band_attributes, required_shifts
from .stages import FusionGroup, group_band, group_of_statement, groups_tree, identity_rows
from .autotune import TuneResult, autotune_tile_sizes
from .tiling import (
    tile_all_groups,
    tile_band,
    tile_band_multilevel,
    tile_group,
    tile_group_multilevel,
)

__all__ = [
    "FusionGroup",
    "HEURISTICS",
    "HYBRIDFUSE",
    "MAXFUSE",
    "MINFUSE",
    "SMARTFUSE",
    "Scheduled",
    "SchedulerError",
    "band_attributes",
    "group_band",
    "group_of_statement",
    "groups_tree",
    "identity_rows",
    "required_shifts",
    "schedule_program",
    "TuneResult",
    "autotune_tile_sizes",
    "tile_all_groups",
    "tile_band",
    "tile_band_multilevel",
    "tile_group",
    "tile_group_multilevel",
]
