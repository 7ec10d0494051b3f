"""Cost analysis: from a compiled result to abstract machine work.

Every strategy the evaluation compares is an
:class:`~repro.core.OptimizeResult` (``repro.baselines.strategies``), and
:func:`analyze_optimized` is the one analyzer: per fusion cluster (one
tiling entry and the extension schedules fused into it = one parallel
region / one GPU kernel) it derives

* arithmetic work, including overlapped-tile recomputation;
* DRAM traffic (per-tile footprints of unpromoted tensors, halo included);
* fast-memory traffic for promoted intermediates;
* available parallelism (tiles along coincident dimensions);
* per-tile scratch requirements.

How a strategy is costed is the result's ``cost_policy``, which the
function that built the result sets: the paper's exact footprints,
PolyMage's group-wide boxes, the start-up heuristics' per-group scratch
accounting, or the naive program's serial scalar run.

Every quantity is derived from the same exact affine relations the
optimizer manipulates — footprint relation (4), extension schedules (6) —
evaluated at the representative tile of :mod:`repro.core.footprint`, which
defines its origin, extents, tile count and boxes; nothing here re-derives
them.  Large-domain instance counts use bounding boxes (exact for the
rectangular domains that dominate the benchmarks; a uniform
over-approximation otherwise), which keeps analysis cost independent of
problem size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..codegen.promotion import promoted_buffers
from ..core import OptimizeResult, TILE_TUPLE, tile_footprint
from ..core.footprint import (
    RepresentativeTile,
    band_extents,
    domain_volume,
    footprint_size,
    group_ops,
    representative_tile,
    tile_image_extents,
    tiles_per_dim,
)
from ..ir import Program
from ..scheduler import FusionGroup

ITEMSIZE = 8  # float64 everywhere


@dataclass
class ClusterWork:
    """Abstract work of one fusion cluster (one kernel / parallel region)."""

    name: str
    statements: List[str]
    ops: float                       # arithmetic ops incl. recomputation
    recompute_ops: float             # the subset that is recomputation
    dram_read_bytes: float
    dram_write_bytes: float
    scratch_traffic_bytes: float     # promoted-buffer traffic
    n_tiles: int
    parallel_units: int              # independent work items (tiles/iters)
    n_parallel_dims: int
    scratch_bytes_per_tile: int
    vectorizable: bool
    ifs_in_body: bool = False        # maxfuse-style guarded bodies
    #: permutable but non-coincident bands: a GPU backend can still mine
    #: wavefront (diagonal) parallelism at poor utilisation
    wavefront: bool = False

    def total_dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass
class ProgramWork:
    clusters: List[ClusterWork]

    def total_ops(self) -> float:
        return sum(c.ops for c in self.clusters)

    def total_dram_bytes(self) -> float:
        return sum(c.total_dram_bytes() for c in self.clusters)

    def total_recompute(self) -> float:
        return sum(c.recompute_ops for c in self.clusters)

    def as_builtins(self) -> List[dict]:
        """The clusters as plain dicts: what ``OptimizeResult.work_summary``
        holds, so a cache blob names no class of this package."""
        return [asdict(c) for c in self.clusters]

    @classmethod
    def from_builtins(cls, summary: Sequence[Mapping]) -> "ProgramWork":
        return cls(
            [ClusterWork(**dict(c, statements=list(c["statements"]))) for c in summary]
        )


# ---------------------------------------------------------------------------
# helpers


def _tensor_bytes(program: Program, tensor: str, params) -> int:
    return program.tensors[tensor].size_elems(params) * ITEMSIZE


def _tiling(
    program: Program, group: FusionGroup, sizes, tile_dims, params
) -> Tuple[int, int, int, Optional[RepresentativeTile]]:
    """``(n_tiles, parallel dims, parallel units, tile)`` of a cluster:
    tiles along the coincident dimensions ``sizes`` covers, and the
    representative tile; iterations along them (one tile, no
    representative) when ``sizes`` is ``None``."""
    if sizes is None:
        n_tiles, tile = 1, None
        per_dim = band_extents(program, group, params)
        par = group.parallel_dim_indices()
    else:
        per_dim = tiles_per_dim(program, group, sizes, params)
        n_tiles = math.prod(per_dim)
        tile = representative_tile(program, group, sizes, tile_dims, params)
        par = [d for d in group.parallel_dim_indices() if d < len(sizes)]
    return n_tiles, len(par), math.prod(per_dim[d] for d in par), tile


def _dram_read_bytes(
    program: Program,
    group: FusionGroup,
    stmts: Sequence[str],
    tile_dims,
    tile: Optional[RepresentativeTile],
    n_tiles: int,
    params,
) -> float:
    """DRAM reads of a cluster of ``stmts``: each tensor it reads and does
    not write streams one footprint box per tile (halo included, at most
    the whole tensor; the whole tensor when untiled or untouched by the
    tile)."""
    statements = [program.statement(s) for s in stmts]
    # In-place tensors (read and written by the same statement, e.g.
    # conv2d's quantisation of its input) carry pre-existing data that
    # must be fetched once even though the cluster also writes them.
    inplace = 0.0
    for stmt in statements:
        if stmt.tensor_written() in stmt.tensors_read():
            inplace += _tensor_bytes(program, stmt.tensor_written(), params)
    written = {stmt.tensor_written() for stmt in statements}
    streamed = sorted(
        {t for stmt in statements for t in stmt.tensors_read()} - written
    )
    fp = None
    if tile is not None and streamed:
        fp = tile_footprint(program, group, tile.sizes, streamed, tile_dims)
    total = 0.0
    for t in streamed:
        whole = _tensor_bytes(program, t, params)
        m = fp.get((TILE_TUPLE, t)) if fp is not None else None
        extents = (
            [None] if m is None else tile_image_extents(m, tile.origin, tile.params)
        )
        box = 0 if None in extents else math.prod(max(e, 0) for e in extents)
        tiled = float(box * ITEMSIZE) * n_tiles
        total += min(max(whole, 0), tiled) if tiled else whole
    return total + inplace


# ---------------------------------------------------------------------------
# analyzers


def reuse_summary(summary: Sequence[Mapping]) -> ProgramWork:
    """The work a ``work_summary`` records, counted as
    ``machine.analyze.reused``: how :func:`analyze_optimized` answers a
    costed result, and how the autotuner costs a candidate from the
    summary the compile cache hands out without the result."""
    obs.count("machine.analyze.reused")
    return ProgramWork.from_builtins(summary)


#: The ``OptimizeResult.cost_policy`` values :func:`analyze_optimized`
#: knows; ``repro.baselines`` sets every one but ``"exact"``.
_POLICIES = ("exact", "box_total", "per_group", "serial")


def analyze_optimized(
    result: OptimizeResult,
    params: Optional[Mapping[str, int]] = None,
) -> ProgramWork:
    """Work model of a result: one cluster per tiling entry, its extension
    schedules fused in.

    ``result.cost_policy``, set by whatever built the result, selects how
    a cluster is costed:

    * ``"exact"`` — the paper's approach (ours, Halide's manual
      schedules): each fused stage recomputes exactly its upwards-exposed
      footprint (relation 6), and a tensor the cluster writes and only it
      reads costs nothing beyond its promoted buffer;
    * ``"box_total"`` — PolyMage's over-approximation: every fused stage
      is grown to the widest per-dimension halo of the whole group
      (tiling-after-fusion cannot see per-stage footprints);
    * ``"per_group"`` — the start-up heuristics (PPCG, Pluto): a tensor
      written and read inside one group stays in cache, charged as
      scratch traffic of twice its size; the group vectorises only along
      a coincident dimension, and a permutable band with none is a
      wavefront;
    * ``"serial"`` — the untransformed program: ``"per_group"`` on one
      core, without vector or parallel units.

    Fused statements' per-tile instances are counted on the extension
    relation in symbolic tile sizes where Algorithm 1 kept one
    (:func:`~repro.core.footprint.footprint_size`: the union of the
    pieces' boxes, evaluated at the representative tile), so every
    candidate of a sweep reads one projection and enumerates nothing a
    box can say.

    A result is costed once: the answer for the program's own parameter
    values is written into ``result.work_summary`` (one list shared by
    the cache entry and every ``fresh()`` copy of it) and returned from
    there when present.  Any other ``params`` neither reads nor writes it.
    ``machine.analyze.computed`` / ``.reused`` count the two.
    """
    policy = result.cost_policy
    if policy not in _POLICIES:
        raise ValueError(f"unknown cost policy {policy!r}")
    per_group = policy in ("per_group", "serial")
    serial = policy == "serial"
    program = result.program
    params = dict(program.params, **(params or {}))
    summary = result.work_summary if params == program.params else None
    if summary:
        return reuse_summary(summary)
    obs.count("machine.analyze.computed")
    buffers = promoted_buffers(result, params)
    clusters: List[ClusterWork] = []
    for entry in result.mixed.tiling_entries():
        group = entry.group
        exts = result.mixed.extensions_of(group)
        cluster_stmts = list(group.statements) + [
            s for e in exts for s in e.group.statements
        ]
        written_here = {
            program.statement(s).tensor_written() for s in cluster_stmts
        }
        promoted = {
            program.statement(s).tensor_written()
            for e in exts
            for s in e.group.statements
        }

        sizes = entry.tile_sizes if entry.is_tiled else None
        n_tiles, par_dims, parallel_units, tile = _tiling(
            program, group, sizes, entry.tile_dims, params
        )

        # Arithmetic: live-out statements run exactly once; fused
        # intermediates run per tile (with halo recomputation).
        ops = group_ops(program, group, params)
        recompute = 0.0
        ext_entries = []  # (stmt name, exact per-tile count, box extents)
        for e in exts:
            relation = e.symbolic if e.symbolic is not None else e.relation
            for s in e.group.statements:
                if (TILE_TUPLE, s) not in e.relation:
                    continue
                if tile is not None:
                    m = relation.get((TILE_TUPLE, s))
                    exact = footprint_size(m, tile.origin, tile.params)
                    ext_extents = [
                        1 if x is None else x
                        for x in tile_image_extents(m, tile.origin, tile.params)
                    ]
                else:
                    exact = domain_volume(program, s, params)
                    ext_extents = []
                ext_entries.append((s, exact, ext_extents))
        if policy == "box_total" and ext_entries:
            # PolyMage-style: every fused stage is grown to the group-wide
            # maximal halo (per leading dimension).  Stages of different
            # rank (e.g. 4-D up/down-sampling vs. 2-D maps) live at
            # different scales and are inflated within their own rank class.
            max_ext_by_rank: Dict[int, List[int]] = {}
            for _, _, ee in ext_entries:
                rank = len(ee)
                cur = max_ext_by_rank.setdefault(rank, [1, 1])
                for d in range(min(2, rank)):
                    cur[d] = max(cur[d], ee[d])
        exact_inst = 0.0
        inflated_inst = 0.0
        for s, exact, ext_extents in ext_entries:
            per_tile = float(exact)
            if policy == "box_total" and len(ext_extents) >= 2:
                own = max(1, ext_extents[0] * ext_extents[1])
                max_ext = max_ext_by_rank[len(ext_extents)]
                inflate = (max_ext[0] * max_ext[1]) / own
                per_tile = max(per_tile, per_tile * inflate)
            exact_inst += float(exact)
            inflated_inst += per_tile
            stmt_ops = program.statement(s).ops_per_instance()
            total = per_tile * n_tiles * stmt_ops
            base = domain_volume(program, s, params) * stmt_ops
            ops += total
            recompute += max(0.0, total - base)
        # Looser tiles also move more data: scratch buffers and streamed
        # reads grow with the same over-approximation factor.
        traffic_inflation = (
            inflated_inst / exact_inst
            if policy == "box_total" and exact_inst > 0
            else 1.0
        )

        dram_read = _dram_read_bytes(
            program, group, cluster_stmts, entry.tile_dims, tile, n_tiles, params
        )
        dram_read *= traffic_inflation
        bufs = buffers.get(group.name, [])
        scratch_per_tile = int(
            sum(b.box_elems for b in bufs) * ITEMSIZE * traffic_inflation
        )
        scratch_traffic = 2.0 * scratch_per_tile * n_tiles

        dram_write = 0.0
        for t in sorted(written_here - promoted):  # promoted: in ``bufs``
            if t in program.liveout or _read_outside(program, t, cluster_stmts):
                dram_write += _tensor_bytes(program, t, params)
            elif per_group:
                size = _tensor_bytes(program, t, params)
                scratch_traffic += 2.0 * size
                scratch_per_tile += size // max(n_tiles, 1)

        clusters.append(
            ClusterWork(
                name=group.name,
                statements=cluster_stmts,
                ops=ops,
                recompute_ops=recompute,
                dram_read_bytes=dram_read,
                dram_write_bytes=dram_write,
                scratch_traffic_bytes=scratch_traffic,
                n_tiles=n_tiles,
                parallel_units=1 if serial else max(parallel_units, 1),
                n_parallel_dims=0 if serial else par_dims,
                scratch_bytes_per_tile=scratch_per_tile,
                vectorizable=not serial and (
                    any(group.coincident) or (group.permutable and not per_group)
                ),
                ifs_in_body=per_group
                and len(cluster_stmts) > 1
                and not all(group.coincident[:1]),
                wavefront=per_group
                and group.permutable
                and not any(group.coincident),
            )
        )
    work = ProgramWork(clusters)
    if summary is not None:
        summary[:] = work.as_builtins()
    return work


def _read_outside(program: Program, tensor: str, stmts: Sequence[str]) -> bool:
    """Whether a statement not among ``stmts`` reads ``tensor``."""
    return any(s.name not in stmts for s in program.readers_of(tensor))
