"""Algorithm 2 — post-tiling fusion on schedule trees.

For every tiling schedule in ``Mixed_Schedules``: replace the group's band
with the tiled band, split it into tile and point parts, then splice each
extension schedule underneath the tile band — an extension node whose
sequence schedules the intermediate space's instances *before* the live-out
point band, tile by tile (Fig. 5 of the paper).  The intermediate space's
original subtree is disabled with a ``"skipped"`` mark.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..ir import Program
from ..presburger import UnionMap
from ..schedule import (
    BandNode,
    DomainNode,
    FilterNode,
    mark_skipped,
    insert_extension_below,
    top_level_filters,
)
from ..scheduler import FusionGroup, Scheduled, group_band, tile_group
from .tile_shapes import (
    ExtensionScheduleEntry,
    MixedSchedules,
    TilingScheduleEntry,
)


class PostFusionError(RuntimeError):
    pass


def apply_mixed_schedules(
    program: Program, scheduled: Scheduled, mixed: MixedSchedules
) -> DomainNode:
    """Algorithm 2: rewrite the conservative tree into the tiled+fused tree.

    The tree held by ``scheduled`` is mutated in place and returned.
    """
    tree = scheduled.tree
    for entry in mixed.tiling_entries():
        group = entry.group
        if not entry.is_tiled:
            continue  # untiled live-out space: leave its subtree alone
        with obs.span(
            "tile_group", group=group.name, sizes=str(entry.tile_sizes)
        ):
            tile = tile_group(tree, group, entry.tile_sizes)
        if tile is None:
            raise PostFusionError(
                f"group {group.name} was marked tiled but its band is not "
                "permutable"
            )
        for ext in mixed.extensions_of(group):
            with obs.span("splice_extension", group=ext.group.name):
                _splice_extension(program, tree, tile, entry, ext)
            obs.count("post_fusion.extensions_spliced")
    return tree


def _splice_extension(
    program: Program,
    tree: DomainNode,
    tile_band: BandNode,
    tiling: TilingScheduleEntry,
    ext: ExtensionScheduleEntry,
) -> None:
    # Align the extension relation's tile dimensions with the names the
    # tile band actually carries.
    rename = dict(zip(tiling.tile_dims, tile_band.dim_names))
    maps = [m.rename_dims(rename) for m in ext.relation.maps.values()]
    relation = UnionMap(maps)

    # The spliced subtree schedules the added instances with the space's
    # original band (band0 in the paper's Fig. 5).
    subtree = group_band(program, ext.group, band_prefix=f"{ext.group.name}x")
    insert_extension_below(tile_band, relation, subtree)

    filt = _filter_of_group(tree, ext.group)
    if filt is not None:
        mark_skipped(filt)


def _filter_of_group(tree: DomainNode, group: FusionGroup) -> Optional[FilterNode]:
    for filt in top_level_filters(tree):
        if set(filt.statements) == set(group.statements):
            return filt
    return None
