"""Per-tile memory footprints — relation (4) of the paper.

Tiles are identified by *origin coordinates*: the tile with origin
``(t0, t1)`` covers the points ``t_d <= row_d(i) < t_d + T_d`` of its
band rows.  Composing the inverse of the tile-assignment relation (2) with
an access relation (3) yields the footprint relation (4):

    { (t0, t1) -> A[a] : the tile at origin (t0, t1) touches A[a] }

which naturally expresses *overlapping* footprints between consecutive
tiles (the stencil halo).

Whatever the compiler decides or prices per tile (Algorithm 1's budgets,
the promoted buffers of Section V-B, every traffic term of
``repro.machine``) is such a relation evaluated at *the representative
tile*, and this module is the only place that says what that is:
:func:`representative_tile` bundles it — the sizes to build relations
with, :func:`interior_tile_origin` (aligned, nearest the middle of the
band rows of the group's first statement, which for a band of one or two
tiles is a boundary tile), and the values of every other free name;
:func:`band_extents` is the extent of each band row over the whole group;
:func:`tiles_per_dim` (and :func:`tile_count`) how many tiles cover them.

Relations are built in symbolic tile sizes wherever
:func:`parametric_binding` applies, so one relation serves every
candidate of a tile-size sweep, and what a candidate reads of one is an
evaluation.  A box has one path: :func:`tile_image_extents` evaluates the
relation's :meth:`~repro.presburger.Map.box_projection` — each piece
projected once onto each out dim, tile origin, sizes and params left
free — at the representative tile; a relation in concrete sizes is the
same projection with fewer free names.  An exact count has one path too:
:func:`footprint_size` evaluates the same projection's per-piece boxes
and unites them in closed form, and enumerates :func:`tile_image` only
for a piece that is not a box in its out dims.  ``None`` in a box is an
unbounded dimension, and each reader says what that costs it.  The
domain box behind the origin, extents and tile count does not depend on
the sizes at all and is computed once per domain and params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir import Program
from ..presburger import (
    BasicMap,
    BasicSet,
    Constraint,
    LinExpr,
    Map,
    MapSpace,
    Set,
    UnionMap,
    memo,
)
from ..scheduler import FusionGroup
from .. import obs

TILE_TUPLE = "_tile"


def parametric_size_names(n: int) -> Tuple[str, ...]:
    """Canonical symbolic tile-size parameter names (size-independent)."""
    return tuple(f"_Tsz{d}" for d in range(n))


def parametric_binding(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence,
    tile_dims: Optional[Sequence[str]] = None,
) -> Optional[Tuple[Tuple[str, ...], Dict[str, int]]]:
    """``(names, {name: size})`` when the parametric engine applies.

    Footprints requested with concrete integer tile sizes are computed
    once with *symbolic* sizes (Section V-A: tile-origin coordinates keep
    the containment constraints affine in a symbolic ``T``) and then
    specialized per size vector.  That applies when every tile size is a
    concrete int and the canonical symbolic names are fresh in the program
    (no clash with statement dims/params, program params or the tile
    dims).  Returns ``None`` otherwise, which keeps symbolic callers and
    exotic programs on the direct path.
    """
    sizes = tuple(tile_sizes)
    if not sizes or not all(type(s) is int for s in sizes):
        return None
    names = parametric_size_names(len(sizes))
    taken = set(program.params)
    if tile_dims:
        taken.update(tile_dims)
    for s in program.statement_names:
        stmt = program.statement(s)
        taken.update(stmt.dims)
        taken.update(stmt.params)
    if taken & set(names):
        return None
    return names, dict(zip(names, sizes))

# The footprint relation is recomputed for every tile-size candidate the
# autotuner probes and for every pass that needs it (cost model, promotion,
# extension), usually with identical inputs.  Groups are mutable (programs
# are not: see :class:`~repro.ir.program.Program`) and entries outlive both,
# so the memo keys are structural: statement domains, band rows and access
# loads, never object identities.
_T2I_MEMO = memo.table("tile_to_instances")
# The footprint tables (and BasicMap.apply_range) are *spillable*: their
# keys and values pickle by symbol name, so hot entries round-trip through
# the on-disk compile cache to warm-start future processes.
_FOOTPRINT_MEMO = memo.table("tile_footprint", spillable=True)
_DOMAIN_BOX_MEMO = memo.table("domain_box")


def _group_key(program: Program, group: FusionGroup, n: int) -> tuple:
    """Structural key of everything :func:`tile_to_instances` reads."""
    per_stmt = []
    for s in group.statements:
        stmt = program.statement(s)
        per_stmt.append(
            (
                s,
                stmt.domain.space,
                tuple(p.constraints for p in stmt.domain.pieces),
                tuple(group.rows[s][:n]),
            )
        )
    return (group.name, tuple(per_stmt))


def _reads_key(program: Program, group: FusionGroup) -> tuple:
    """Structural key of the access expressions the footprint depends on."""
    per_stmt = []
    for s in group.statements:
        stmt = program.statement(s)
        per_stmt.append(
            (
                s,
                (stmt.lhs.tensor, tuple(stmt.lhs.indices)),
                tuple(
                    (l.tensor, tuple(l.indices)) for l in stmt.read_loads()
                ),
            )
        )
    return tuple(per_stmt)


def tile_dim_names(group: FusionGroup, n: int) -> Tuple[str, ...]:
    return tuple(f"{group.name}_o{d}" for d in range(n))


def tile_to_instances(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence,
    tile_dims: Optional[Sequence[str]] = None,
) -> UnionMap:
    """Relation (2) reversed: ``{ (t) -> S[i] : i lands in the tile at t }``.

    One map per statement of the group.  ``tile_sizes`` tiles the leading
    band dimensions; statements are constrained to their domains.

    Tile sizes may be integers or *parameter names* (strings): with
    tile-origin coordinates the containment constraint ``t <= row < t + T``
    stays affine for symbolic ``T``, which is how the paper's akg
    integration handles parametric tile sizes (Section V-A).
    """
    n = len(tile_sizes)
    if n == 0 or n > group.depth:
        raise ValueError(
            f"{len(tile_sizes)} tile sizes for a depth-{group.depth} group"
        )
    tdims = tuple(tile_dims) if tile_dims is not None else tile_dim_names(group, n)
    key = (_group_key(program, group, n), tuple(tile_sizes), tdims)
    cached = _T2I_MEMO.get(key)
    if cached is not memo.MISS:
        return cached
    with obs.span("tile_to_instances", group=group.name):
        return _tile_to_instances_miss(program, group, tile_sizes, tdims, key)


def _tile_to_instances_miss(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence,
    tdims: Tuple[str, ...],
    key: tuple,
) -> UnionMap:
    n = len(tile_sizes)
    pb = parametric_binding(program, group, tile_sizes, tdims)
    if pb is not None:
        names, binding = pb
        sym = tile_to_instances(program, group, names, tdims)
        return _T2I_MEMO.put(key, sym.specialize(binding))
    size_params = tuple(
        s for s in tile_sizes if isinstance(s, str)
    )
    maps: List[Map] = []
    for s in group.statements:
        stmt = program.statement(s)
        rows = group.rows[s]
        pieces = []
        params = tuple(dict.fromkeys(stmt.params + size_params))
        space = MapSpace(TILE_TUPLE, tdims, s, stmt.dims, params)
        for dpiece in stmt.domain.pieces:
            cons: List[Constraint] = list(dpiece.constraints)
            for d in range(n):
                t = LinExpr.var(tdims[d])
                row = rows[d]
                size = tile_sizes[d]
                size_expr = (
                    LinExpr.var(size) if isinstance(size, str) else LinExpr.const_expr(size)
                )
                cons.append(Constraint.le(t, row))
                cons.append(Constraint.lt(row, t + size_expr))
            pieces.append(BasicMap(space, cons))
        maps.append(Map(space, pieces))
    return _T2I_MEMO.put(key, UnionMap(maps))


def _read_footprint(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence,
    tensors: Sequence[str],
    tile_dims: Optional[Sequence[str]],
) -> UnionMap:
    """``{ (t) -> T[a] }`` over the group's reads of ``tensors``, memoized;
    concrete sizes specialize the symbolic answer where
    :func:`parametric_binding` applies."""
    key = (
        _group_key(program, group, len(tile_sizes)),
        _reads_key(program, group),
        tuple(tile_sizes),
        tuple(tile_dims) if tile_dims is not None else None,
        tuple(tensors),
    )
    cached = _FOOTPRINT_MEMO.get(key)
    if cached is not memo.MISS:
        return cached
    pb = parametric_binding(program, group, tile_sizes, tile_dims)
    if pb is not None:
        names, binding = pb
        sym = _read_footprint(program, group, names, tensors, tile_dims)
        return _FOOTPRINT_MEMO.put(key, sym.specialize(binding))
    t2i = tile_to_instances(program, group, tile_sizes, tile_dims)
    out: List[Map] = []
    for s in group.statements:
        inst = t2i.get((TILE_TUPLE, s))
        if inst is None:
            continue
        reads = program.statement(s).read_relations().maps
        for (_, tensor), access in reads.items():
            if tensor not in tensors:
                continue
            fp = inst.apply_range(access)
            if not fp.is_empty():
                out.append(fp)
    # One relation per tensor: UnionMap unites the maps of a shared space.
    result = UnionMap(out)
    obs.count("footprint.relations", len(result))
    return _FOOTPRINT_MEMO.put(key, result)


def tile_footprint(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tensors: Sequence[str],
    tile_dims: Optional[Sequence[str]] = None,
) -> UnionMap:
    """Relation (4): ``{ (t) -> T[a] : tile t reads element a of T }``.

    Only reads of the listed ``tensors`` (the upwards-exposed data) are
    included; results are keyed ``(TILE_TUPLE, tensor)``.
    """
    with obs.span("footprint", group=group.name, tensors=len(tensors)):
        fp = _read_footprint(program, group, tile_sizes, tensors, tile_dims)
        obs.annotate(relations=len(fp.maps))
        for m in fp.maps.values():
            obs.observe(
                "footprint.pieces", len(m.pieces), buckets=(1, 2, 4, 8, 16, 32)
            )
        return fp


# ---------------------------------------------------------------------------
# the representative tile


def tile_image(relation: Map, origin: Mapping[str, int], params: Mapping[str, int]) -> Set:
    """What the tile at ``origin`` maps to under a per-tile ``relation``
    (a footprint (4) or an extension schedule (6)); ``params`` binds the
    program's parameters and, for a relation built with symbolic sizes,
    the sizes."""
    binding = {k: v for k, v in params.items() if k in relation.space.params}
    binding.update(origin)
    fixed = relation.fix(binding)
    space = fixed.space.range_space
    return Set(space, [BasicSet(space, p.constraints) for p in fixed.pieces])


def tile_image_extents(
    relation: Map, origin: Mapping[str, int], params: Mapping[str, int]
) -> List[Optional[int]]:
    """The box of :func:`tile_image`, per out dim, ``None`` where unbounded:
    the relation's :meth:`~repro.presburger.Map.box_projection` evaluated
    at ``origin`` and ``params``.  What an unbounded dimension means is the
    caller's: an infinite recomputation in Algorithm 1, no streamed bytes
    in the read model."""
    return relation.box_projection().extents({**params, **origin})


def footprint_size(
    relation: Map, origin: Mapping[str, int], params: Mapping[str, int]
) -> int:
    """Exact number of points :func:`tile_image` holds, in closed form
    where the relation's :meth:`~repro.presburger.Map.box_projection` can
    say (every piece live at the tile is a box in its out dims: the union
    volume of the pieces' boxes, evaluated), and by enumerating the image
    otherwise.  ``footprint.count.closed_form`` / ``.enumerated`` count
    the two."""
    n = relation.box_projection().count({**params, **origin})
    if n is not None:
        obs.count("footprint.count.closed_form")
        return n
    obs.count("footprint.count.enumerated")
    return tile_image(relation, origin, params).count_points()


def domain_volume(program: Program, stmt_name: str, params: Mapping[str, int]) -> int:
    """Instances of a statement, counted as the box of each domain piece
    (exact for the rectangular domains that dominate the benchmarks)."""
    domain = program.statement(stmt_name).domain
    return sum(piece.box_volume(params) for piece in domain.pieces)


def group_ops(program: Program, group: FusionGroup, params: Mapping[str, int]) -> float:
    """Arithmetic of one execution of every instance of the group."""
    return float(
        sum(
            domain_volume(program, s, params) * program.statement(s).ops_per_instance()
            for s in group.statements
        )
    )


def _domain_box(stmt, params: Mapping[str, int]) -> Dict[str, Tuple]:
    """Bounding box of a statement's domain, united piece by piece (the
    set-level ``Set.bounding_box`` is a second memo entry per domain).
    It does not depend on the tile sizes, so a sweep computes it once:
    the key is the domain's structure and the params it reads.  Callers
    only read the box."""
    domain = stmt.domain
    binding = tuple(sorted((k, v) for k, v in params.items() if k in domain.space.params))
    key = (domain.space, tuple(p.constraints for p in domain.pieces), binding)
    box = _DOMAIN_BOX_MEMO.get(key)
    if box is not memo.MISS:
        return box
    box = {}
    for piece in domain.fix_params(dict(binding)).pieces:
        for dim, (lo, hi) in piece.bounding_box().items():
            if dim in box:
                olo, ohi = box[dim]
                lo = None if lo is None or olo is None else min(lo, olo)
                hi = None if hi is None or ohi is None else max(hi, ohi)
            box[dim] = (lo, hi)
    return _DOMAIN_BOX_MEMO.put(key, box)


def _row_range(row: LinExpr, box: Mapping[str, Tuple], where: str) -> Tuple[int, int]:
    """The interval a band row takes over ``box``."""
    lo = hi = row.const
    for sym, c in row.coeffs.items():
        slo, shi = box.get(sym, (0, 0))
        if slo is None or shi is None:
            raise ValueError(f"unbounded band row {row} in {where}")
        lo += c * (slo if c > 0 else shi)
        hi += c * (shi if c > 0 else slo)
    return lo, hi


def band_extents(
    program: Program, group: FusionGroup, params: Mapping[str, int]
) -> List[int]:
    """Extent of each outer band dimension over the group's statements."""
    extents = [0] * group.depth
    for s in group.statements:
        box = _domain_box(program.statement(s), params)
        for d in range(group.depth):
            lo, hi = _row_range(group.rows[s][d], box, group.name)
            extents[d] = max(extents[d], hi - lo + 1)
    return extents


def interior_tile_origin(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tile_dims: Sequence[str],
    params: Mapping[str, int],
) -> Dict[str, int]:
    """The representative tile: an aligned origin near the middle of the
    band, over the group's first statement."""
    origin: Dict[str, int] = {}
    stmt = program.statement(group.statements[0])
    box = _domain_box(stmt, params)
    for d, (tdim, size) in enumerate(zip(tile_dims, tile_sizes)):
        lo, hi = _row_range(group.rows[stmt.name][d], box, group.name)
        aligned = ((lo + hi) // 2 // size) * size
        origin[tdim] = max((lo // size) * size, min(aligned, (hi // size) * size))
    return origin


@dataclass(frozen=True)
class RepresentativeTile:
    """Where a tiled group's per-tile relations are evaluated.

    ``sizes`` is what to build those relations with: the symbolic names of
    :func:`parametric_binding` where it applies (one relation then serves
    every size vector), the sizes themselves otherwise.  ``params`` binds
    every name such a relation leaves free besides the tile dims: the
    program's parameters and ``values``.
    """

    sizes: Tuple
    values: Dict[str, int]  # the names' sizes; empty when ``sizes`` are ints
    origin: Dict[str, int]
    params: Dict[str, int]


def representative_tile(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tile_dims: Sequence[str],
    params: Mapping[str, int],
) -> RepresentativeTile:
    """The :class:`RepresentativeTile` of ``group`` tiled by ``tile_sizes``."""
    origin = interior_tile_origin(program, group, tile_sizes, tile_dims, params)
    pb = parametric_binding(program, group, tile_sizes, tile_dims)
    if pb is None:
        return RepresentativeTile(tuple(tile_sizes), {}, origin, dict(params))
    names, values = pb
    return RepresentativeTile(names, values, origin, {**params, **values})


def tiles_per_dim(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    params: Mapping[str, int],
) -> List[int]:
    """Tiles along each tiled band dimension (ceil of extent over size)."""
    extents = band_extents(program, group, params)
    return [-(-extents[d] // size) for d, size in enumerate(tile_sizes)]


def tile_count(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    params: Mapping[str, int],
) -> int:
    """Number of tiles the tiling schedule produces."""
    return math.prod(tiles_per_dim(program, group, tile_sizes, params))
