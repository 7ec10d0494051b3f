"""Per-tile memory footprints — relation (4) of the paper.

Tiles are identified by *origin coordinates*: the tile with origin
``(t0, t1)`` covers the points ``t_d <= row_d(i) < t_d + T_d`` of its
band rows.  Composing the inverse of the tile-assignment relation (2) with
an access relation (3) yields the footprint relation (4):

    { (t0, t1) -> A[a] : the tile at origin (t0, t1) touches A[a] }

which naturally expresses *overlapping* footprints between consecutive
tiles (the stencil halo).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir import Program
from ..presburger import BasicMap, Constraint, LinExpr, Map, MapSpace, UnionMap, memo
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
_WRITE_FP_MEMO = memo.table("write_footprint", spillable=True)


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
        fp = _tile_footprint(program, group, tile_sizes, tensors, tile_dims)
        obs.annotate(relations=len(fp.maps))
        for m in fp.maps.values():
            obs.observe(
                "footprint.pieces", len(m.pieces), buckets=(1, 2, 4, 8, 16, 32)
            )
        return fp


def _tile_footprint(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tensors: Sequence[str],
    tile_dims: Optional[Sequence[str]] = None,
) -> UnionMap:
    n = len(tile_sizes)
    key = (
        _group_key(program, group, n),
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
        sym = _tile_footprint(program, group, names, tensors, tile_dims)
        return _FOOTPRINT_MEMO.put(key, sym.specialize(binding))
    t2i = tile_to_instances(program, group, tile_sizes, tile_dims)
    out: Dict[str, Map] = {}
    for s in group.statements:
        stmt = program.statement(s)
        reads = stmt.read_relations()
        inst = t2i.get((TILE_TUPLE, s))
        if inst is None:
            continue
        for (_, tensor), access in reads.maps.items():
            if tensor not in tensors:
                continue
            fp = inst.apply_range(access)
            if fp.is_empty():
                continue
            if tensor in out:
                prev = out[tensor]
                rename = dict(zip(fp.space.out_dims, prev.space.out_dims))
                rename.update(zip(fp.space.in_dims, prev.space.in_dims))
                out[tensor] = prev.union(fp.rename_dims(rename))
            else:
                out[tensor] = fp
    obs.count("footprint.relations", len(out))
    return _FOOTPRINT_MEMO.put(key, UnionMap(list(out.values())))


def footprint_size(
    fp: Map, tile_origin: Mapping[str, int], params: Mapping[str, int]
) -> int:
    """Exact number of elements a concrete tile touches."""
    n = fp.fix_params(params).image_of_point(tile_origin).count_points()
    obs.observe(
        "footprint.size_elements",
        n,
        buckets=(64, 256, 1024, 4096, 16384, 65536, 262144, 1048576),
    )
    return n


def band_extents(
    program: Program, group: FusionGroup, params: Mapping[str, int]
) -> List[int]:
    """Extent of each outer band dimension over the group's statements."""
    extents = [0] * group.depth
    for s in group.statements:
        stmt = program.statement(s)
        box: Dict[str, Tuple[int, int]] = {}
        for piece in stmt.domain.fix_params(params).pieces:
            for dim, (lo, hi) in piece.bounding_box().items():
                if dim in box:
                    olo, ohi = box[dim]
                    box[dim] = (min(lo, olo), max(hi, ohi))
                else:
                    box[dim] = (lo, hi)
        for d in range(group.depth):
            row = group.rows[s][d]
            lo = hi = row.const
            for sym, c in row.coeffs.items():
                slo, shi = box.get(sym, (0, 0))
                if slo is None or shi is None:
                    raise ValueError(f"unbounded band row {row} in {group.name}")
                lo += c * (slo if c > 0 else shi)
                hi += c * (shi if c > 0 else slo)
            extents[d] = max(extents[d], hi - lo + 1)
    return extents


def interior_tile_origin(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tile_dims: Sequence[str],
    params: Mapping[str, int],
) -> Dict[str, int]:
    """An aligned tile origin near the middle of the band (representative
    of interior tiles for footprint/recompute estimation)."""
    origin: Dict[str, int] = {}
    stmt = program.statement(group.statements[0])
    dom = stmt.domain.fix_params(params)
    box = dom.bounding_box()
    for d, (tdim, size) in enumerate(zip(tile_dims, tile_sizes)):
        row = group.rows[stmt.name][d]
        lo = hi = row.const
        for sym, c in row.coeffs.items():
            slo, shi = box.get(sym, (0, 0))
            if slo is None or shi is None:
                raise ValueError(f"unbounded row {row} in group {group.name}")
            lo += c * (slo if c > 0 else shi)
            hi += c * (shi if c > 0 else slo)
        mid = (lo + hi) // 2
        aligned = (mid // size) * size
        aligned = max((lo // size) * size, min(aligned, (hi // size) * size))
        origin[tdim] = aligned
    return origin


def tile_count(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    params: Mapping[str, int],
) -> int:
    """Number of tiles the tiling schedule produces (ceil per dimension)."""
    extents = band_extents(program, group, params)
    total = 1
    for d, size in enumerate(tile_sizes):
        total *= -(-extents[d] // size)
    return total


def write_footprint(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tensors: Sequence[str],
    tile_dims: Optional[Sequence[str]] = None,
) -> UnionMap:
    """Like :func:`tile_footprint` but for writes (used for store traffic)."""
    with obs.span("write_footprint", group=group.name):
        return _write_footprint(program, group, tile_sizes, tensors, tile_dims)


def _write_footprint(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tensors: Sequence[str],
    tile_dims: Optional[Sequence[str]] = None,
) -> UnionMap:
    n = len(tile_sizes)
    key = (
        _group_key(program, group, n),
        _reads_key(program, group),
        tuple(tile_sizes),
        tuple(tile_dims) if tile_dims is not None else None,
        tuple(tensors),
    )
    cached = _WRITE_FP_MEMO.get(key)
    if cached is not memo.MISS:
        return cached
    pb = parametric_binding(program, group, tile_sizes, tile_dims)
    if pb is not None:
        names, binding = pb
        sym = _write_footprint(program, group, names, tensors, tile_dims)
        return _WRITE_FP_MEMO.put(key, sym.specialize(binding))
    t2i = tile_to_instances(program, group, tile_sizes, tile_dims)
    out: List[Map] = []
    for s in group.statements:
        stmt = program.statement(s)
        if stmt.tensor_written() not in tensors:
            continue
        inst = t2i.get((TILE_TUPLE, s))
        if inst is None:
            continue
        fp = inst.apply_range(stmt.write_relation())
        if not fp.is_empty():
            out.append(fp)
    return _WRITE_FP_MEMO.put(key, UnionMap(out))
