"""Aggressive memory optimisation: promotion of intermediates (Section V-B).

Values produced by an intermediate computation space fused into a tile are
only used within that tile, so they can live in a small scratchpad (CPU),
shared memory (GPU) or a unified buffer (NPU) and be discarded when the
tile completes.  A buffer is the bounding box of a footprint (PPCG's
rectangular over-approximation).  Two consumers:

* the cost model and the display printers ask :func:`promoted_buffers`
  what the paper promotes, per fusion cluster: every tensor a fused
  (extension) space produces, boxed at the representative tile of
  :mod:`repro.core.footprint`, where the box is a constant;
* the compilable C backend really allocates the buffers, so it needs the
  box with the enclosing loop symbols left free (:func:`tile_box`: the
  layout relation ``element -> slot`` for *every* tile; with no symbol
  free it is the constant box above) and first asks whether a buffer is
  unobservable: :func:`sites_in` its loop nest (:func:`scratch_sites`
  for a tree), over the same tensors, with :func:`live_in_tensors`.  The
  model asks no such question — it prices conv2d's in-place ``A`` as
  promoted, C must keep it global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set as PySet, Tuple

from ..core import OptimizeResult, TILE_TUPLE, tile_footprint
from ..core.footprint import box_extents, interior_tile_origin, tile_image
from .. import obs
from ..ir import Program
from ..presburger import BasicSet, Constraint, LinExpr, Map, Set, SetSpace
from ..presburger.fm import (
    eliminate_symbols,
    implied_by_intervals,
    interval_bounds,
    projected_bounds,
    rational_feasible,
)
from ..schedule import DomainNode
from .nest import Extension, Leaf, Nest, inner, scan


@dataclass
class PromotedBuffer:
    """One tensor's per-tile scratch buffer within a fusion cluster."""

    tensor: str
    box_shape: Tuple[int, ...]     # rectangular over-approximated extent
    exact_elems: int               # exact footprint size (integer points)

    @property
    def box_elems(self) -> int:
        total = 1
        for e in self.box_shape:
            total *= e
        return total

    @property
    def over_approximation(self) -> float:
        """Box size relative to the exact footprint (>= 1.0)."""
        if self.exact_elems == 0:
            return 1.0
        return self.box_elems / self.exact_elems


def promoted_buffers(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> Dict[str, List[PromotedBuffer]]:
    """Per-cluster promoted buffers, keyed by the live-out group's name.

    A tensor is promoted when it is produced by a fused (extension) space
    and consumed inside the same cluster's tiles.
    """
    with obs.span("codegen.promotion"):
        out = _promoted_buffers(result, params)
        obs.annotate(
            clusters=len(out), buffers=sum(len(b) for b in out.values())
        )
        return out


def _promoted_buffers(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> Dict[str, List[PromotedBuffer]]:
    program = result.program
    params = dict(program.params, **(params or {}))
    out: Dict[str, List[PromotedBuffer]] = {}
    for entry in result.mixed.tiling_entries():
        exts = result.mixed.extensions_of(entry.group)
        if not entry.is_tiled or not exts:
            continue
        fused_tensors = sorted(
            {
                program.statement(s).tensor_written()
                for e in exts
                for s in e.group.statements
            }
        )
        fp = tile_footprint(
            program, entry.group, entry.tile_sizes, fused_tensors, entry.tile_dims
        )
        buffers: List[PromotedBuffer] = []
        origin = interior_tile_origin(
            program, entry.group, entry.tile_sizes, entry.tile_dims, params
        )
        for tensor in fused_tensors:
            m = fp.get((TILE_TUPLE, tensor))
            if m is not None:
                touched = tile_image(m, origin, params)
            else:
                # Produced and consumed only among the fused spaces; size it
                # by the producer's extension instances instead.
                touched = _written_by_extension(program, exts, tensor, origin, params)
            buffers.append(_boxed(tensor, touched))
        out[entry.group.name] = buffers
    return out


def _written_by_extension(
    program: Program, exts, tensor: str, origin, params
) -> Optional[Set]:
    for e in exts:
        for s in e.group.statements:
            stmt = program.statement(s)
            if stmt.tensor_written() == tensor and (TILE_TUPLE, s) in e.relation:
                inst = e.instances_for_tile(s, origin, params)
                return stmt.write_relation().fix_params(params).apply_to_set(inst)
    return None


def _boxed(tensor: str, touched: Optional[Set]) -> PromotedBuffer:
    """The buffer for one tile's ``touched`` elements.  The set's own box on
    purpose, not :func:`tile_box` with nothing left symbolic (same shapes):
    ``count_points`` and the cost model box the same sets through the same
    memo table, and a tile-size sweep calls this per candidate."""
    if touched is None:
        return PromotedBuffer(tensor, (0,), 0)
    shape = tuple(e or 0 for e in box_extents(touched))
    return PromotedBuffer(tensor, shape, touched.count_points())


def total_scratch_bytes(
    buffers: Sequence[PromotedBuffer], itemsize: int = 8
) -> int:
    return sum(b.box_elems for b in buffers) * itemsize


@dataclass
class StorageReduction:
    """How much intermediate storage post-tiling fusion eliminates."""

    tensor: str
    full_bytes: int          # the unfused allocation (whole tensor)
    per_tile_bytes: int      # the fused per-tile scratch buffer

    @property
    def factor(self) -> float:
        return self.full_bytes / max(self.per_tile_bytes, 1)


def storage_reduction(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> List[StorageReduction]:
    """Per promoted tensor: full-buffer bytes vs. per-tile scratch bytes.

    This quantifies the paper's "enabling storage reduction and reuse":
    without post-tiling fusion every intermediate needs its whole tensor
    in memory; fused, it needs one tile footprint per running tile.
    """
    program = result.program
    params = dict(program.params, **(params or {}))
    out: List[StorageReduction] = []
    for buffers in promoted_buffers(result, params).values():
        for b in buffers:
            full = program.tensors[b.tensor].size_elems(params) * 8
            out.append(StorageReduction(b.tensor, full, b.box_elems * 8))
    return out


# ---------------------------------------------------------------------------
# what the compilable backend may keep per tile


def entails(hypotheses: Sequence[Constraint], c: Constraint) -> bool:
    """Whether ``c`` holds at every integer point of ``hypotheses``.

    ``hypotheses ∧ ¬c`` having no *rational* point is sufficient, and FM
    decides that exactly; interval propagation settles the common chains
    (``v >= 32q``, ``q >= 0``) first.  A ``False`` may be a false negative.
    """
    if implied_by_intervals(c, _propagated_intervals(hypotheses)):
        return True
    return all(not rational_feasible([*hypotheses, n]) for n in c.negated())


def _propagated_intervals(constraints: Sequence[Constraint], rounds: int = 2):
    """``interval_bounds`` tightened through the multi-symbol inequalities:
    ``a*s + rest >= 0`` bounds ``s`` once the rest of it is bounded."""
    bounds = interval_bounds(constraints)
    wide = [c.expr for c in constraints if c.kind == ">=" and len(c.expr.terms) > 1]
    for _ in range(rounds):
        for expr in wide:
            coeffs = expr.coeffs
            for s, a in coeffs.items():
                most = expr.const  # the largest the other terms can be
                for t, b in coeffs.items():
                    if t != s:
                        end = bounds.get(t, (None, None))[b > 0]
                        if end is None:
                            break
                        most += b * end
                else:
                    lo, hi = bounds.get(s, (None, None))
                    if a > 0 and (lo is None or -(most // a) > lo):
                        bounds[s] = (-(most // a), hi)
                    elif a < 0 and (hi is None or most // -a < hi):
                        bounds[s] = (lo, most // -a)
    return bounds


def _elem_dims(ndim: int) -> Tuple[str, ...]:
    """Canonical names of a tensor's index space, shared by all accesses."""
    return tuple(f"_e{k}" for k in range(ndim))


def _footprint(access: Map, params: Mapping[str, int]) -> Set:
    """The elements an access relation touches, over ``_elem_dims`` (FM's
    rational projection: it may hold elements no instance touches)."""
    touched = access.fix_params(params).range()
    dims = _elem_dims(len(touched.space.dims))
    return touched.rename_dims(dict(zip(touched.space.dims, dims)))


def _projected_exactly(
    system: Sequence[Constraint], dims: Sequence[str]
) -> Optional[List[Constraint]]:
    """``system`` with ``dims`` eliminated, or ``None`` when FM's (rational)
    projection may hold integer points the integer projection lacks.

    A dim goes exactly when an equality with a unit coefficient defines
    it, or when no equality mentions it and every pair of a lower bound
    ``a*x >= l`` and an upper bound ``b*x <= u`` with ``a, b > 1`` has its
    dark shadow ``a*u - b*l >= (a-1)(b-1)`` (Pugh's Omega test: an integer
    ``x`` then exists) implied by what remains.
    """
    system, todo = list(system), list(dims)
    while todo:
        in_eq = {d for d in todo for c in system if c.kind == "==" and c.coeff(d)}
        dim = next(
            (d for d in todo if any(
                c.kind == "==" and abs(c.coeff(d)) == 1 for c in system
            )),
            None,
        ) or next((d for d in todo if d not in in_eq), None)
        if dim is None:
            return None  # x = 2*y: the image skips elements
        rest = eliminate_symbols(system, [dim])
        if dim not in in_eq:
            for lo in system:
                for up in system:
                    a, b = lo.coeff(dim), -up.coeff(dim)
                    if a > 1 and b > 1:
                        shadow = (lo.expr - LinExpr({dim: a})) * b + (
                            up.expr + LinExpr({dim: b})
                        ) * a
                        dark = Constraint(shadow - (a - 1) * (b - 1), ">=")
                        if not dark.is_trivially_true() and not entails(rest, dark):
                            return None
        system = rest
        todo.remove(dim)
    return system


def _certainly_written(stmt, params: Mapping[str, int]) -> Set:
    """Elements ``stmt`` writes, over ``_elem_dims``, leaving out every
    domain piece whose image FM cannot project exactly: a cover must not
    hold an element nobody wrote (``Y[2*i]`` leaves the odd ones alone,
    though the rational projection contains them)."""
    dims = _elem_dims(len(stmt.lhs.indices))
    space = SetSpace(stmt.lhs.tensor, dims)
    pieces: List[BasicSet] = []
    for piece in stmt.domain.pieces:
        system = [c.substitute(params) for c in piece.constraints] + [
            Constraint.eq(LinExpr.var(d) - i.substitute(params))
            for d, i in zip(dims, stmt.lhs.indices)
        ]
        image = _projected_exactly(system, stmt.dims)
        if image is not None:
            pieces.append(BasicSet(space, image))
    return Set(space, pieces)


def _within_one_piece(
    indices: Sequence[LinExpr], instances: Sequence[Constraint], cover: Set
) -> bool:
    """Whether ``{indices(i) : i in instances}`` lies inside a single piece
    of ``cover``."""
    at = dict(zip(_elem_dims(len(indices)), indices))
    return any(
        all(entails(instances, c.substitute(at)) for c in piece.constraints)
        for piece in cover.pieces
    )


def live_in_tensors(
    program: Program, params: Optional[Mapping[str, int]] = None
) -> Tuple[str, ...]:
    """The tensors whose initial contents the program can observe.

    One rule, in program order: a tensor is live-in when some statement
    reads an element that no *earlier* statement certainly wrote (a
    reduction reads its own target, an in-place update reads what it
    overwrites), or when it is live-out and not written everywhere.  Every
    other tensor may start with any contents, so the C backend neither
    reads it from disk nor keeps it in memory between tiles.
    """
    params = dict(program.params, **(params or {}))
    written: Dict[str, Set] = {}
    live: PySet[str] = set()
    for stmt in program.statements:
        pieces = [
            [c.substitute(params) for c in p.constraints]
            for p in stmt.domain.pieces
        ]
        for tensor in stmt.tensors_read():
            if tensor in live:
                continue
            cover = written.get(tensor)
            if cover is None:
                live.add(tensor)
                continue
            loads = [
                [i.substitute(params) for i in load.indices]
                for load in stmt.read_loads()
                if load.tensor == tensor
            ]
            if all(
                _within_one_piece(indices, instances, cover)
                for indices in loads
                for instances in pieces
            ):
                continue
            reads = stmt.read_relations()[(stmt.name, tensor)]
            if not _footprint(reads, params).is_subset(cover):
                live.add(tensor)
        target = stmt.tensor_written()
        if target not in live:
            touched = _certainly_written(stmt, params)
            written[target] = (
                written[target].union(touched) if target in written else touched
            )
    for tensor in program.liveout:
        if tensor in live:
            continue
        dims = _elem_dims(program.tensors[tensor].ndim)
        whole = [
            c
            for d, extent in zip(dims, program.tensors[tensor].concrete_shape(params))
            for c in (Constraint.ge(LinExpr.var(d)), Constraint.le(LinExpr.var(d), extent - 1))
        ]
        cover = written.get(tensor)
        if cover is None or not (
            _within_one_piece([LinExpr.var(d) for d in dims], whole, cover)
            or Set(cover.space, [BasicSet(cover.space, whole)]).is_subset(cover)
        ):
            live.add(tensor)
    return tuple(t for t in program.tensors if t in live)


def scratch_sites(
    tree: DomainNode, program: Program, live_in: Sequence[str]
) -> Tuple[Dict[str, Extension], Dict[str, str]]:
    """:func:`sites_in` the tree's executable loop nest."""
    return sites_in(scan(tree, program, program.params), program, live_in)


def sites_in(
    nest: Nest, program: Program, live_in: Sequence[str]
) -> Tuple[Dict[str, Extension], Dict[str, str]]:
    """Where each fused intermediate may live in a per-tile buffer.

    Returns ``(sites, kept)``.  ``sites[tensor]`` is the extension scope
    beneath which ``tensor`` can be private to one tile: every statement
    writing it is introduced by that scope and runs nowhere else, every
    statement reading it runs beneath the scope, and neither its initial
    nor its final contents are observable.  ``kept[tensor]`` says why a
    tensor some extension writes stays a global array.
    """
    introduced: Dict[str, List[Extension]] = {}
    runs_under: Dict[str, List[Tuple[Extension, ...]]] = {}

    def collect(node: Nest, above: Tuple[Extension, ...]) -> None:
        if isinstance(node, Leaf):
            for name in dict.fromkeys(p.stmt for p in node.pieces):
                runs_under.setdefault(name, []).append(above)
        elif isinstance(node, Extension):
            for name in node.added:
                introduced.setdefault(name, []).append(node)
            above += (node,)
        for child in inner(node):
            collect(child, above)

    collect(nest, ())

    def beneath(node: Extension, names: Sequence[str]) -> bool:
        return all(
            any(n is node for n in above)
            for name in names
            for above in runs_under.get(name, ())
        )

    sites: Dict[str, Extension] = {}
    kept: Dict[str, str] = {}
    for tensor in dict.fromkeys(
        program.statement(name).tensor_written() for name in introduced
    ):
        writers = [s.name for s in program.writers_of(tensor)]
        nodes = {id(n): n for w in writers for n in introduced.get(w, ())}
        node = next(iter(nodes.values()))
        if tensor in live_in:
            kept[tensor] = "live-in"
        elif tensor in program.liveout:
            kept[tensor] = "live-out"
        elif len(nodes) != 1 or not beneath(node, writers):
            kept[tensor] = "outside writer"
        elif not beneath(node, [s.name for s in program.readers_of(tensor)]):
            kept[tensor] = "outside reader"
        else:
            sites[tensor] = node
    return sites, kept


@dataclass(frozen=True)
class TileBox:
    """A per-tile buffer as a layout relation: element ``idx`` of the
    tensor lives in slot ``idx - origin`` of a ``shape`` array."""

    origin: Tuple[LinExpr, ...]   # affine in the enclosing loop symbols
    shape: Tuple[int, ...]

    @property
    def elems(self) -> int:
        return math.prod(self.shape)


def tile_box(
    accesses: Sequence[Tuple[Sequence[Constraint], Sequence[LinExpr]]],
    outer: Sequence[str],
) -> Optional[TileBox]:
    """The smallest box ``origin + [0, shape)`` holding every accessed
    element, for every value of the ``outer`` symbols (all tiles at once;
    with no ``outer`` symbol, the constant bounding box).

    ``accesses`` lists ``(instances, indices)``: a constraint system over
    ``outer`` and statement dims, and the affine index of the element each
    instance touches.  Per tensor dimension the bounds of the index are
    projected onto ``outer``; an origin must be a lower bound with unit
    divisor in every piece, and its extent is the tightest upper bound at
    constant distance from it.  ``None`` when some dimension has no such
    origin (a ``ceild`` of the tile origin, a union with no common corner)
    or nothing is accessed at all.
    """
    if not accesses:
        return None
    ndim = len(accesses[0][1])
    origin: List[LinExpr] = []
    shape: List[int] = []
    for k in range(ndim):
        e = "_e"
        lowers: List[List[LinExpr]] = []          # per piece: e >= l
        uppers: List[List[Tuple[LinExpr, int]]] = []  # per piece: a*e <= u
        for instances, indices in accesses:
            system = [*instances, Constraint.eq(LinExpr.var(e) - indices[k])]
            lo: List[LinExpr] = []
            hi: List[Tuple[LinExpr, int]] = []
            for c in projected_bounds(system, e, outer):
                a = c.coeff(e)
                rest = c.expr - LinExpr({e: a})
                if a == 1 or (a == -1 and c.kind == "=="):
                    lo.append(-rest if a == 1 else rest)
                if a < 0 or c.kind == "==":
                    hi.append((rest, -a) if a < 0 else (-rest, a))
            lowers.append(lo)
            uppers.append(hi)
        best: Optional[Tuple[int, LinExpr]] = None
        for candidate in dict.fromkeys(l for lo in lowers for l in lo):
            extent = _extent_from(candidate, lowers, uppers)
            if extent is not None and (best is None or extent < best[0]):
                best = (extent, candidate)
        if best is None:
            return None
        shape.append(max(best[0], 1))
        origin.append(best[1])
    return TileBox(tuple(origin), tuple(shape))


def _extent_from(
    candidate: LinExpr,
    lowers: Sequence[Sequence[LinExpr]],
    uppers: Sequence[Sequence[Tuple[LinExpr, int]]],
) -> Optional[int]:
    """How many slots ``[candidate, ...)`` needs to cover every piece, when
    ``candidate`` bounds every piece from below and each piece has an upper
    bound at constant distance; otherwise ``None``."""
    extent = 0
    for lo, hi in zip(lowers, uppers):
        if not any(
            (l - candidate).is_constant() and (l - candidate).const >= 0 for l in lo
        ):
            return None
        reach = [
            (u - candidate * a).const // a + 1
            for u, a in hi
            if (u - candidate * a).is_constant()
        ]
        if not reach:
            return None
        extent = max(extent, min(reach))
    return extent
