"""Aggressive memory optimisation: promotion of intermediates (Section V-B).

Values produced by an intermediate computation space fused into a tile are
only used within that tile, so they can live in a small scratchpad (CPU),
shared memory (GPU) or a unified buffer (NPU) and be discarded when the
tile completes.  Two consumers share this module:

* the cost model and the display printers ask :func:`promoted_buffers`
  what the paper promotes, per fusion cluster: every tensor a fused
  (extension) space produces, with its bounding box (PPCG's rectangular
  over-approximation of possibly non-rectangular footprints) evaluated at
  a representative interior tile;
* the compilable C backend really allocates the buffers, so it also needs
  to know that doing so is unobservable (:func:`live_in_tensors`,
  :func:`scratch_sites`) and where a buffer sits for *every* tile, as a
  layout relation ``element -> slot`` derived from the footprint
  (:func:`tile_box`).  On full interior tiles the two boxes agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set as PySet, Tuple

from ..core import OptimizeResult, TILE_TUPLE, tile_footprint
from .. import obs
from ..ir import Program
from ..presburger import BasicSet, Constraint, LinExpr, Map, Set, memo
from ..presburger.fm import implied_by_intervals, interval_bounds, rational_feasible
from ..schedule import (
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    Node,
    SequenceNode,
    SKIPPED,
)
from ..scheduler import FusionGroup
from .printer import projected_bounds


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


def representative_tile_origin(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tile_dims: Sequence[str],
    params: Mapping[str, int],
) -> Dict[str, int]:
    """An interior tile origin: aligned, near the middle of the band."""
    origin: Dict[str, int] = {}
    # Bound each band row over the group's first statement's domain.
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
        # Fused producers may feed each other; include footprints seen from
        # the producer side too (reads of fused statements).
        buffers: List[PromotedBuffer] = []
        origin = representative_tile_origin(
            program, entry.group, entry.tile_sizes, entry.tile_dims, params
        )
        for tensor in fused_tensors:
            m = fp.get((TILE_TUPLE, tensor))
            if m is None:
                # Produced and consumed only among the fused spaces; size it
                # by the producer's extension instances instead.
                buffers.append(
                    _buffer_from_extension(program, exts, tensor, origin, params)
                )
                continue
            image = m.fix_params(params).image_of_point(origin)
            box = image.bounding_box()
            shape = tuple(
                (hi - lo + 1) if lo is not None and hi is not None else 0
                for lo, hi in box.values()
            )
            buffers.append(
                PromotedBuffer(tensor, shape, image.count_points())
            )
        out[entry.group.name] = buffers
    return out


def _buffer_from_extension(
    program: Program, exts, tensor: str, origin, params
) -> PromotedBuffer:
    for e in exts:
        for s in e.group.statements:
            stmt = program.statement(s)
            if stmt.tensor_written() != tensor:
                continue
            m = e.relation.get((TILE_TUPLE, s))
            if m is None:
                continue
            inst = m.fix_params(params).image_of_point(origin)
            elems = inst.count_points()
            writes = stmt.write_relation().fix_params(params)
            touched = writes.apply_to_set(inst)
            box = touched.bounding_box()
            shape = tuple(
                (hi - lo + 1) if lo is not None and hi is not None else 0
                for lo, hi in box.values()
            )
            return PromotedBuffer(tensor, shape, touched.count_points())
    return PromotedBuffer(tensor, (0,), 0)


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
    """The elements an access relation touches, over ``_elem_dims``."""
    touched = access.fix_params(params).range()
    dims = _elem_dims(len(touched.space.dims))
    return touched.rename_dims(dict(zip(touched.space.dims, dims)))


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


#: Liveness depends on the program alone, and one program is emitted under
#: many trees (fused and original order; a tile-size sweep).  Programs are
#: mutable, so the key is structural.
_LIVE_IN_MEMO = memo.table("live_in_tensors")


def live_in_tensors(
    program: Program, params: Optional[Mapping[str, int]] = None
) -> Tuple[str, ...]:
    """The tensors whose initial contents the program can observe.

    One rule, in program order: a tensor is live-in when some statement
    reads an element that no *earlier* statement wrote (a reduction reads
    its own target, an in-place update reads what it overwrites), or when
    it is live-out and not written everywhere.  Every other tensor may
    start with any contents, so the C backend neither reads it from disk
    nor keeps it in memory between tiles.
    """
    params = dict(program.params, **(params or {}))
    key = (
        tuple(
            (
                tuple(p.constraints for p in s.domain.pieces),
                tuple((l.tensor, tuple(l.indices)) for l in (s.lhs, *s.read_loads())),
            )
            for s in program.statements
        ),
        tuple((t, program.tensors[t].concrete_shape(params)) for t in program.liveout),
        tuple(program.tensors),
        tuple(sorted(params.items())),
    )
    cached = _LIVE_IN_MEMO.get(key)
    if cached is memo.MISS:
        cached = _LIVE_IN_MEMO.put(key, _live_in_tensors(program, params))
    return cached


def _live_in_tensors(program: Program, params: Mapping[str, int]) -> Tuple[str, ...]:
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
        touched = _footprint(stmt.write_relation(), params)
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
) -> Tuple[Dict[str, ExtensionNode], Dict[str, str]]:
    """Where each fused intermediate may live in a per-tile buffer.

    Returns ``(sites, kept)``.  ``sites[tensor]`` is the extension node
    beneath which ``tensor`` can be private to one tile: every statement
    writing it is introduced by that node and runs nowhere else, every
    statement reading it runs beneath the node, and neither its initial
    nor its final contents are observable.  ``kept[tensor]`` says why a
    tensor some extension writes stays a global array.
    """
    introduced: Dict[str, List[ExtensionNode]] = {}
    runs_under: Dict[str, List[Tuple[ExtensionNode, ...]]] = {}

    def visit(node: Optional[Node], active: Tuple[str, ...], above) -> None:
        if node is None or isinstance(node, LeafNode):
            for name in active:
                runs_under.setdefault(name, []).append(above)
        elif isinstance(node, MarkNode) and node.mark == SKIPPED:
            return
        elif isinstance(node, SequenceNode):
            for filt in node.filters:
                visit(filt, active, above)
        elif isinstance(node, FilterNode):
            visit(node.child, tuple(s for s in active if s in node.statements), above)
        elif isinstance(node, ExtensionNode):
            added = node.added_statements()
            for name in added:
                introduced.setdefault(name, []).append(node)
            visit(node.child, tuple(dict.fromkeys(active + added)), above + (node,))
        else:
            visit(node.child, active, above)

    visit(tree.child, program.statement_names, ())

    def beneath(node: ExtensionNode, names: Sequence[str]) -> bool:
        return all(
            any(n is node for n in above)
            for name in names
            for above in runs_under.get(name, ())
        )

    sites: Dict[str, ExtensionNode] = {}
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
    writes: Sequence[Tuple[Sequence[Constraint], Sequence[LinExpr]]],
    outer: Sequence[str],
) -> Optional[TileBox]:
    """The smallest box ``origin + [0, shape)`` holding every written
    element, for every value of the ``outer`` symbols (all tiles at once).

    ``writes`` lists ``(instances, indices)``: a constraint system over
    ``outer`` and statement dims, and the affine index of the element each
    instance writes.  Per tensor dimension the bounds of the index are
    projected onto ``outer``; an origin must be a lower bound with unit
    divisor in every piece, and its extent is the tightest upper bound at
    constant distance from it.  ``None`` when some dimension has no such
    origin (a ``ceild`` of the tile origin, a union with no common corner)
    or nothing is written at all.
    """
    if not writes:
        return None
    ndim = len(writes[0][1])
    origin: List[LinExpr] = []
    shape: List[int] = []
    for k in range(ndim):
        e = "_e"
        lowers: List[List[LinExpr]] = []          # per piece: e >= l
        uppers: List[List[Tuple[LinExpr, int]]] = []  # per piece: a*e <= u
        for instances, indices in writes:
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
