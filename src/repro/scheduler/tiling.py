"""Rectangular/parallelogram tiling of band nodes.

Tile bands use *tile-origin coordinates*: a tile band dimension iterates
over the origins of tiles (multiples of the tile size) and the point band
below it re-uses the same affine rows, constrained by the code generator to
``origin <= row < origin + size``.  Keeping tile coordinates affine (no
floor divisions) is what lets the paper's footprint relations (4) and
extension schedules (6) stay within plain affine algebra.

Parallelogram tiling falls out for free: a band whose rows carry alignment
shifts (``h + KH - 1``) tiles into parallelogram-shaped tiles in the
original iteration space.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..schedule import BandNode, DomainNode, FilterNode
from .stages import FusionGroup


def tile_band(band: BandNode, tile_sizes: Sequence[int]) -> Tuple[BandNode, BandNode]:
    """Split ``band`` into a tile band over origins and a point band.

    Returns ``(tile, point)`` where ``tile.child is point`` and
    ``point.child`` is the original band's child.  ``tile_sizes`` may be
    shorter than the band (only leading dims are tiled).
    """
    n = len(tile_sizes)
    if n == 0 or n > band.n_dims:
        raise ValueError(
            f"cannot tile {band.n_dims}-dim band with {n} tile sizes"
        )
    if any(t <= 0 for t in tile_sizes):
        raise ValueError(f"tile sizes must be positive: {tile_sizes}")
    if not band.permutable:
        raise ValueError("cannot tile a non-permutable band")
    point = BandNode(
        {s: list(rows) for s, rows in band.schedules.items()},
        dim_names=[f"{d}_p" for d in band.dim_names],
        permutable=band.permutable,
        coincident=list(band.coincident),
        child=band.child,
    )
    tile = BandNode(
        {s: list(rows[:n]) for s, rows in band.schedules.items()},
        dim_names=[f"{d}_T" for d in band.dim_names[:n]],
        permutable=band.permutable,
        coincident=list(band.coincident[:n]),
        child=point,
        tile_sizes=list(tile_sizes),
    )
    return tile, point


def tile_group(
    tree: DomainNode, group: FusionGroup, tile_sizes: Sequence[int]
) -> Optional[BandNode]:
    """Tile a fusion group's outer band in place; returns the tile band.

    Non-permutable groups are left untiled (``None`` is returned), mirroring
    PPCG's behaviour.
    """
    filt = _group_filter(tree, group)
    band = filt.child
    if not isinstance(band, BandNode):
        raise ValueError(f"group {group.name} filter does not hold a band")
    if not band.permutable:
        return None
    sizes = list(tile_sizes)[: band.n_dims]
    if not sizes:
        return None
    tile, _point = tile_band(band, sizes)
    filt.child = tile
    return tile


def _group_filter(tree: DomainNode, group: FusionGroup) -> FilterNode:
    from ..schedule import top_level_filters

    for filt in top_level_filters(tree):
        if set(group.statements) == set(filt.statements):
            return filt
    raise KeyError(f"no top-level filter for group {group.name}")
