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
from .stages import FusionGroup, group_band, groups_tree, identity_rows
from .autotune import TuneResult, autotune_tile_sizes
from .tiling import tile_band, tile_group

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
    "groups_tree",
    "identity_rows",
    "required_shifts",
    "schedule_program",
    "TuneResult",
    "autotune_tile_sizes",
    "tile_band",
    "tile_group",
]
