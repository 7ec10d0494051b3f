"""Algorithm 1 — constructing arbitrary tile shapes.

Rectangular/parallelogram tiling is applied *only* to live-out computation
spaces.  The tile shapes of intermediate computation spaces are then derived
from the per-tile footprints of the upwards-exposed data, as *extension
schedules* (relation (6)): affine maps from tile origins to the statement
instances each tile must recompute/keep locally.  The output is the paper's
``Mixed_Schedules``: an ordered union of tiling schedules and extension
schedules.

A tile-size sweep runs this pass once per candidate, and only its budget
decisions depend on the sizes.  The relation algebra therefore runs once:
the live-out footprints and every extension relation are built in
symbolic tile sizes (:func:`repro.core.footprint.parametric_binding`) as
a chain of derivations (:class:`_Chain`, one per footprint table a
candidate's decisions reach, kept in a memo table), each relation with its
:meth:`~repro.presburger.Map.box_projection`.  A candidate evaluates those
boxes at its representative tile, decides, and specializes only the
extension relations it emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..ir import Program
from ..ir.fingerprint import fingerprint_program
from ..presburger import Map, UnionMap, memo
from ..presburger.map_ import BoxProjection
from ..scheduler import FusionGroup
from .. import obs
from .exposed import exposed_tensors
from .footprint import (
    domain_volume,
    group_ops,
    interior_tile_origin,
    parametric_binding,
    tile_count,
    tile_dim_names,
    tile_footprint,
)


@dataclass(frozen=True)
class TargetSpec:
    """How much parallelism the target machine needs preserved.

    ``m_cap`` bounds the number of parallel dimensions the pass protects
    (1 for OpenMP CPUs, 2 for the CUDA grid); a live-out space is treated
    as tilable only when it offers at least ``min_m`` parallel dimensions
    (Section III-C).  ``max_recompute`` bounds the recomputation factor a
    fused intermediate space may incur (total extended instances over its
    domain size): halo-style overlap passes easily, while footprints that
    scale with a full problem dimension (the matmul-chain case) are
    rejected — the paper's fusion "never introduces redundancy" beyond
    bounded overlapped tiling.
    """

    name: str
    m_cap: int
    min_m: int
    max_recompute: float = 8.0
    #: Cluster-level budget: total recomputation ops a fusion cluster may
    #: accumulate, relative to its genuine work.  Deep stencil chains
    #: (Local Laplacian's 99 stages) split into several clusters once the
    #: accumulated halo work reaches this ratio, mirroring the cost-model
    #: guidance the paper's AKG integration applies.
    max_recompute_ratio: float = 2.0
    #: Per-tile fast-memory budget: fused intermediates must fit the
    #: target's scratchpad (CPU cache share / GPU shared memory / NPU
    #: unified buffer), or their traffic would spill right back to DRAM.
    scratch_bytes: int = 256 * 1024


CPU = TargetSpec("cpu", m_cap=1, min_m=1, scratch_bytes=4 * 1024 * 1024)
GPU = TargetSpec("gpu", m_cap=2, min_m=2, scratch_bytes=96 * 1024)
NPU = TargetSpec("npu", m_cap=1, min_m=1, scratch_bytes=256 * 1024)

TARGETS = {t.name: t for t in (CPU, GPU, NPU)}


@dataclass
class TilingScheduleEntry:
    """Rectangular/parallelogram tiling of one live-out computation space."""

    group: FusionGroup
    tile_sizes: Optional[Tuple[int, ...]]  # None: the group stays untiled
    tile_dims: Tuple[str, ...] = ()

    @property
    def is_tiled(self) -> bool:
        return self.tile_sizes is not None


@dataclass
class ExtensionScheduleEntry:
    """An extension schedule: tile origins -> intermediate instances."""

    group: FusionGroup
    target: FusionGroup
    relation: UnionMap  # keyed (TILE_TUPLE, stmt); in dims = target tile dims
    #: ``relation`` before the tile sizes were fixed, where the parametric
    #: engine built it: one box projection then serves every size vector.
    #: In memory only; a pickled entry carries ``relation`` alone.
    symbolic: Optional[UnionMap] = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("symbolic", None)
        return state


MixedEntry = Union[TilingScheduleEntry, ExtensionScheduleEntry]


@dataclass
class MixedSchedules:
    """Algorithm 1's output: ordered tiling + extension schedules.

    Extension entries always follow the tiling entry of their target group,
    each consumer before its producers — the order Algorithm 2 splices
    them in.
    """

    entries: List[MixedEntry] = field(default_factory=list)

    def tiling_entries(self) -> List[TilingScheduleEntry]:
        return [e for e in self.entries if isinstance(e, TilingScheduleEntry)]

    def extensions_of(self, group: FusionGroup) -> List[ExtensionScheduleEntry]:
        return [
            e
            for e in self.entries
            if isinstance(e, ExtensionScheduleEntry) and e.target is group
        ]

    def first_tile_sizes(self) -> Optional[Tuple[int, ...]]:
        """The sizes the first tiled entry uses, ``None`` when none is
        tiled: what a result reports as its tile sizes (the caller's
        request clipped to the band depth, or defaulted)."""
        return next(
            (e.tile_sizes for e in self.tiling_entries() if e.is_tiled), None
        )

    def fused_groups(self) -> List[List[FusionGroup]]:
        """The fusion groups Algorithm 1 implies (one per tiling entry): its
        group, then the groups of the extensions that target it, in entry
        order."""
        tilings, extensions = [], {}
        for e in self.entries:
            if isinstance(e, TilingScheduleEntry):
                tilings.append(e.group)
            elif isinstance(e, ExtensionScheduleEntry):
                extensions.setdefault(id(e.target), []).append(e.group)
        return [[g, *extensions.get(id(g), ())] for g in tilings]


def construct_tile_shapes(
    program: Program,
    liveout: FusionGroup,
    intermediates: Sequence[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec = CPU,
) -> MixedSchedules:
    """Algorithm 1: build ``Mixed_Schedules`` for one live-out space.

    ``intermediates`` must be ordered consumers before their producers (as
    :func:`repro.core.exposed.intermediate_groups_of` returns them).
    """
    mixed = MixedSchedules()
    _algorithm1(program, liveout, list(intermediates), tile_sizes, target, mixed)
    obs.count("tile_shapes.entries", len(mixed.entries))
    return mixed


def effective_tile_sizes(
    group: FusionGroup, tile_sizes: Optional[Sequence[int]], target: TargetSpec
) -> Optional[Tuple[int, ...]]:
    """Clip the user tile-size vector to the group's band depth.

    When no sizes are given, fusion-without-tiling is realised with
    unit tiles over the protected parallel dimensions (the equake case of
    Section VI-A: an "empty" tiling that still enables post-tiling fusion).
    """
    if tile_sizes is None:
        m = min(group.n_parallel(), target.m_cap)
        if m == 0:
            return None
        return (1,) * m
    sizes = tuple(tile_sizes)[: group.depth]
    return sizes if sizes else None


def _algorithm1(
    program: Program,
    liveout: FusionGroup,
    intermediates: List[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
    mixed: MixedSchedules,
) -> None:
    with obs.span(
        "algorithm1", liveout=liveout.name, intermediates=len(intermediates)
    ):
        _algorithm1_step(
            program, liveout, intermediates, tile_sizes, target, mixed
        )


def _algorithm1_step(
    program: Program,
    liveout: FusionGroup,
    intermediates: List[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
    mixed: MixedSchedules,
) -> None:
    m = min(liveout.n_parallel(), target.m_cap)
    tilable = liveout.permutable and liveout.n_parallel() >= target.min_m
    sizes = effective_tile_sizes(liveout, tile_sizes, target) if tilable else None

    if sizes is None:
        # Line 18: the live-out space is not tilable; emit it untiled and
        # recurse over the remaining spaces.
        mixed.entries.append(TilingScheduleEntry(liveout, None))
        if intermediates:
            _algorithm1(
                program,
                intermediates[0],
                intermediates[1:],
                tile_sizes,
                target,
                mixed,
            )
        return

    tdims = tile_dim_names(liveout, len(sizes))
    mixed.entries.append(TilingScheduleEntry(liveout, sizes, tdims))

    # Lines 5-6: upwards-exposed data of the live-out space and the
    # footprint function f (relation (4)), in symbolic tile sizes where
    # the parametric engine applies: the chain below is then the same for
    # every size vector, and only the budget decisions read the sizes.
    all_spaces = [liveout] + intermediates
    data = exposed_tensors(program, liveout, all_spaces)
    pb = parametric_binding(program, liveout, sizes, tdims)
    names, values = pb if pb is not None else (sizes, {})
    chain = _root_chain(program, liveout, names, tdims, data)

    untiled: List[FusionGroup] = []
    n_tiles = tile_count(program, liveout, sizes, program.params)
    origin = interior_tile_origin(program, liveout, sizes, tdims, program.params)
    at = {**program.params, **values, **origin}
    budget = {
        "work": max(group_ops(program, liveout, program.params), 1.0),
        "extra": 0.0,
        "scratch": 0.0,
    }
    for space in intermediates:
        # Line 7-8: preserve the live-out space's parallelism.
        n = space.n_parallel()
        if m > n:
            untiled.append(space)
            continue
        with obs.span("fuse_space", space=space.name):
            fused = _fuse_space(
                program, space, liveout, chain, values, at, n_tiles, target, budget
            )
            obs.annotate(fused=not isinstance(fused, str))
            if isinstance(fused, str):
                obs.annotate(reason=fused)
        if isinstance(fused, str):
            obs.count("tile_shapes.rejected_spaces")
            obs.count(f"tile_shapes.rejected.{fused}")
            untiled.append(space)
            continue
        entry, chain = fused
        obs.count("tile_shapes.fused_spaces")
        mixed.entries.append(entry)

    # Line 17: recursively handle the spaces left untiled.
    if untiled:
        _algorithm1(
            program, untiled[0], untiled[1:], tile_sizes, target, mixed
        )


# ---------------------------------------------------------------------------
# the symbolic chain: derived once, evaluated per tile-size candidate

#: Roots of Algorithm 1's symbolic derivations (:class:`_Chain`), one per
#: program, live-out band and exposed data, shared by every tile-size
#: vector the parametric engine covers.  Keys are structural, like every
#: memo key; the table does not spill.
_CHAIN_MEMO = memo.table("tile_shapes_chain")


def _root_chain(
    program: Program,
    liveout: FusionGroup,
    sizes: Tuple,
    tdims: Tuple[str, ...],
    data: Tuple[str, ...],
) -> "_Chain":
    band = tuple((s, tuple(liveout.rows[s][: len(sizes)])) for s in liveout.statements)
    key = (fingerprint_program(program), liveout.name, band, sizes, tdims, data)
    chain = _CHAIN_MEMO.get(key)
    if chain is memo.MISS:
        fp = tile_footprint(program, liveout, sizes, data, tdims)
        chain = _CHAIN_MEMO.put(
            key, _Chain({tensor: m for (_, tensor), m in fp.maps.items()})
        )
    return chain


class _Chain:
    """Lines 9-16 below one table of upwards-exposed footprints: what
    fusing each space derives from it, derived on first use."""

    __slots__ = ("footprints", "fusions")

    def __init__(self, footprints: Dict[str, Map]):
        self.footprints = footprints
        self.fusions: Dict[tuple, Optional[_Fusion]] = {}

    def fusion(self, program: Program, space: FusionGroup) -> Optional["_Fusion"]:
        """Fusing ``space`` below this table; ``None`` when the space
        writes nothing the tiles need."""
        key = (space.name, tuple(space.statements))
        if key not in self.fusions:
            written = {program.statement(s).tensor_written() for s in space.statements}
            # setdefault: candidates compiled on threads may race here; the
            # first fusion stored is the one every candidate then shares.
            self.fusions.setdefault(
                key,
                _Fusion(program, space, self.footprints)
                if written & set(self.footprints)
                else None,
            )
        return self.fusions[key]


@dataclass(frozen=True)
class _Step:
    """Relation (6) of one statement and what its budgets read."""

    ext: Map
    box: BoxProjection
    domain_size: int
    ops: float


class _Fusion:
    """Lines 9-16 for one space below a footprint table: each statement's
    relation (6), consumers first, and the table once the space is
    fused."""

    __slots__ = ("steps", "relation", "after")

    def __init__(self, program: Program, space: FusionGroup, footprints):
        # A copy: a rejected space must leave the footprint table untouched,
        # or its producers would be fused (and skipped) to serve a consumer
        # that still runs from its original, earlier position.
        local = dict(footprints)
        producers = program.written_tensors()
        steps: List[_Step] = []
        # Statements are visited consumers-first so that footprints of
        # tensors produced *within* the space become available for its
        # earlier statements.
        for s in sorted(space.statements, key=program.statement_index, reverse=True):
            stmt = program.statement(s)
            fp = local.get(stmt.tensor_written())
            if fp is None:
                continue
            # Relation (5) reversed write, then relation (6) = f . (5).  The
            # union of per-consumer footprints is collapsed to its simple
            # hull: overlapping disjuncts would otherwise re-extend (and
            # re-execute) the same instances once per piece.
            ext = (
                fp.apply_range(stmt.write_relation().reverse())
                .dedupe()
                .pattern_hull()
                .dedupe()
            )
            steps.append(
                _Step(
                    ext,
                    ext.box_projection(),
                    domain_volume(program, s, program.params),
                    stmt.ops_per_instance(),
                )
            )
            # Line 15: extend the exposed data with what s itself reads.
            # Pure inputs (never written) cannot fuse anything, so their
            # footprints need not be tracked.  Emptiness is decided over
            # every tile size: a tile of any size holds the unit tile,
            # which touches whatever the relation touches at all.
            for (_, read_tensor), access in stmt.read_relations().maps.items():
                if read_tensor not in producers:
                    continue
                extra = ext.apply_range(access)
                if extra.is_empty():
                    continue
                if read_tensor in local:
                    prev = local[read_tensor]
                    rename = dict(zip(extra.space.in_dims, prev.space.in_dims))
                    rename.update(zip(extra.space.out_dims, prev.space.out_dims))
                    merged = prev.union(extra.rename_dims(rename)).dedupe()
                    if len(merged) > 1:
                        # Halo unions of consumer stages are shifted copies
                        # of one region; the simple hull collapses them (a
                        # sound over-approximation for footprints:
                        # extensions may only grow).
                        merged = merged.pattern_hull().dedupe()
                    local[read_tensor] = merged
                else:
                    local[read_tensor] = extra.dedupe()
        self.steps = tuple(steps)
        self.relation = UnionMap([st.ext for st in steps])
        self.after = _Chain(local)


def _fuse_space(
    program: Program,
    space: FusionGroup,
    liveout: FusionGroup,
    chain: _Chain,
    values: Mapping[str, int],
    at: Mapping[str, int],
    n_tiles: int,
    target: TargetSpec,
    budget: Dict[str, float],
) -> Union[str, Tuple[ExtensionScheduleEntry, _Chain]]:
    """Lines 9-16: extension schedules for every statement of ``space``.

    Returns the entry and the footprint table it leaves, or why the space
    stays out of the tile: it writes nothing the tiles need
    (``no_footprint``; it then belongs to a later invocation of Algorithm
    1), or fusing it would exceed the target's recomputation factor
    (``recompute_factor``), the cluster's recompute ratio
    (``recompute_ratio``) or the scratchpad (``scratch_budget``).

    The relations come from ``chain``, in the tile sizes' symbols where the
    parametric engine applies; this function only evaluates their boxes at
    ``at`` (the representative tile's origin, the params and the sizes) and
    specializes the emitted entry to ``values`` (the sizes by symbol).
    """
    fusion = chain.fusion(program, space)
    if fusion is None:
        return "no_footprint"
    space_extra = 0.0
    space_work = 0.0
    space_scratch = 0.0
    for step in fusion.steps:
        # Recomputation budgets.  Per space: instances all tiles would run
        # over the statement's domain size — halo overlap stays near 1,
        # footprints spanning a whole problem dimension (matmul chains)
        # blow past it.  Per cluster: accumulated recompute ops may not
        # exceed max_recompute_ratio of the cluster's genuine work, which
        # splits very deep stencil chains.
        per_tile = _box_volume(step.box.extents(at))
        domain_size = step.domain_size
        if domain_size > 0:
            factor = per_tile * n_tiles / domain_size
            if factor > target.max_recompute:
                return "recompute_factor"
            extra_ops = max(0.0, (per_tile * n_tiles - domain_size)) * step.ops
            new_extra = budget["extra"] + space_extra + extra_ops
            new_work = budget["work"] + space_work + domain_size * step.ops
            if new_extra > target.max_recompute_ratio * new_work:
                return "recompute_ratio"
            # Fast-memory budget: the per-tile buffer this statement's
            # output occupies must still fit the target scratchpad.
            buffer_bytes = per_tile * 8.0
            if (
                budget["scratch"] + space_scratch + buffer_bytes
                > target.scratch_bytes
            ):
                return "scratch_budget"
            space_extra += extra_ops
            space_work += domain_size * step.ops
            space_scratch += buffer_bytes
    budget["extra"] += space_extra
    budget["work"] += space_work
    budget["scratch"] += space_scratch
    # The emitted relation leaves this pass (post-fusion, cost model,
    # promotion all consume it), so it is always concrete; the symbolic one
    # rides along in memory for the cost model's boxes.
    relation = fusion.relation
    concrete = UnionMap([m.specialize(values) for m in relation.maps.values()])
    symbolic = relation if values else None
    return ExtensionScheduleEntry(space, liveout, concrete, symbolic), fusion.after


def _box_volume(extents: List[Optional[int]]) -> float:
    """Box volume of the instances one representative tile extends."""
    if None in extents:
        return float("inf")
    return float(math.prod(max(e, 0) for e in extents))
