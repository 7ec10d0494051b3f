"""Cost analysis: from schedule structures to abstract machine work.

The analytical machine models need, per fusion cluster (one top-level tiled
loop nest = one parallel region / one GPU kernel):

* arithmetic work, including overlapped-tile recomputation;
* DRAM traffic (per-tile footprints of unpromoted tensors, halo included);
* fast-memory traffic for promoted intermediates;
* available parallelism (tiles along coincident dimensions);
* per-tile scratch requirements.

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
from ..core import OptimizeResult, TILE_TUPLE, tile_dim_names, tile_footprint
from ..core.footprint import (
    band_extents,
    box_extents,
    domain_volume,
    group_ops,
    interior_tile_origin,
    tile_image_extents,
    tiles_per_dim,
)
from ..ir import Program
from ..scheduler import FusionGroup, Scheduled

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


def work_features(work: ProgramWork) -> Dict[str, float]:
    """The cost-model internals of one analyzed schedule as a flat,
    name-stable feature dict (the ``work`` section of an autotune dataset
    record, :mod:`repro.data`): per-candidate footprint, traffic, reuse
    and parallelism aggregates a learned ranker can train against.
    """
    clusters = work.clusters
    n = len(clusters)
    ops = work.total_ops()
    dram = work.total_dram_bytes()
    scratch = sum(c.scratch_traffic_bytes for c in clusters)
    return {
        "n_clusters": float(n),
        "ops": ops,
        "recompute_ops": work.total_recompute(),
        "recompute_ratio": work.total_recompute() / ops if ops else 0.0,
        "dram_read_bytes": sum(c.dram_read_bytes for c in clusters),
        "dram_write_bytes": sum(c.dram_write_bytes for c in clusters),
        "dram_bytes": dram,
        "scratch_traffic_bytes": scratch,
        # operational intensity and scratch reuse: the two quantities the
        # roofline models pivot on
        "intensity": ops / dram if dram else 0.0,
        "scratch_reuse": scratch / dram if dram else 0.0,
        "n_tiles": float(sum(c.n_tiles for c in clusters)),
        "parallel_units_min": float(min((c.parallel_units for c in clusters), default=0)),
        "parallel_units_max": float(max((c.parallel_units for c in clusters), default=0)),
        "scratch_bytes_per_tile_max": float(
            max((c.scratch_bytes_per_tile for c in clusters), default=0)
        ),
        "vectorizable_frac": (
            sum(1.0 for c in clusters if c.vectorizable) / n if n else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# helpers


def _tensor_bytes(program: Program, tensor: str, params) -> int:
    return program.tensors[tensor].size_elems(params) * ITEMSIZE


def _tiling(
    program: Program, group: FusionGroup, sizes, tile_dims, params
) -> Tuple[int, int, int, Dict[str, int]]:
    """``(n_tiles, parallel dims, parallel units, origin)`` of a cluster:
    tiles along the coincident dimensions ``sizes`` covers, at the
    representative tile; iterations along them (one tile, no origin) when
    ``sizes`` is ``None``."""
    if sizes is None:
        n_tiles, origin = 1, {}
        per_dim = band_extents(program, group, params)
        par = group.parallel_dim_indices()
    else:
        per_dim = tiles_per_dim(program, group, sizes, params)
        n_tiles = math.prod(per_dim)
        origin = interior_tile_origin(program, group, sizes, tile_dims, params)
        par = [d for d in group.parallel_dim_indices() if d < len(sizes)]
    return n_tiles, len(par), math.prod(per_dim[d] for d in par), origin


def _dram_read_bytes(
    program: Program,
    group: FusionGroup,
    stmts: Sequence[str],
    sizes,
    tile_dims,
    origin,
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
    if sizes is not None and streamed:
        fp = tile_footprint(program, group, sizes, streamed, tile_dims)
    total = 0.0
    for t in streamed:
        whole = _tensor_bytes(program, t, params)
        m = fp.get((TILE_TUPLE, t)) if fp is not None else None
        extents = [None] if m is None else tile_image_extents(m, origin, params)
        box = 0 if None in extents else math.prod(max(e, 0) for e in extents)
        tiled = float(box * ITEMSIZE) * n_tiles
        total += min(max(whole, 0), tiled) if tiled else whole
    return total + inplace


# ---------------------------------------------------------------------------
# analyzers


def analyze_optimized(
    result: OptimizeResult,
    params: Optional[Mapping[str, int]] = None,
    overlap: str = "exact",
) -> ProgramWork:
    """Work model of a post-tiling-fused schedule.

    ``overlap`` selects the recomputation model for fused intermediates:

    * ``"exact"`` — the paper's approach: each stage recomputes exactly its
      upwards-exposed footprint (relation 6);
    * ``"box_total"`` — PolyMage-style over-approximation: every fused
      stage is grown to the widest per-dimension halo of the whole group
      (tiling-after-fusion cannot see per-stage footprints).

    A result is costed once: the answer for the program's own parameter
    values under ``"exact"`` is written into ``result.work_summary`` (one
    list shared by the cache entry and every ``fresh()`` copy of it) and
    returned from there when present.  Any other ``params`` or ``overlap``
    neither reads nor writes it, and a baseline's result has none.
    ``machine.analyze.computed`` / ``.reused`` count the two.
    """
    if overlap not in ("exact", "box_total"):
        raise ValueError(f"unknown overlap policy {overlap!r}")
    program = result.program
    params = dict(program.params, **(params or {}))
    summary = None  # the list to read or fill, when this call may
    if overlap == "exact" and params == program.params:
        summary = getattr(result, "work_summary", None)
    if summary:
        obs.count("machine.analyze.reused")
        return ProgramWork.from_builtins(summary)
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
        n_tiles, par_dims, parallel_units, origin = _tiling(
            program, group, sizes, entry.tile_dims, params
        )

        # Arithmetic: live-out statements run exactly once; fused
        # intermediates run per tile (with halo recomputation).
        ops = group_ops(program, group, params)
        recompute = 0.0
        ext_entries = []  # (stmt name, exact per-tile count, box extents)
        for e in exts:
            for s in e.group.statements:
                if (TILE_TUPLE, s) not in e.relation:
                    continue
                if origin:
                    image = e.instances_for_tile(s, origin, params)
                    exact = image.count_points()
                    ext_extents = [1 if x is None else x for x in box_extents(image)]
                else:
                    exact = domain_volume(program, s, params)
                    ext_extents = []
                ext_entries.append((s, exact, ext_extents))
        if overlap == "box_total" and ext_entries:
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
            if overlap == "box_total" and len(ext_extents) >= 2:
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
            if overlap == "box_total" and exact_inst > 0
            else 1.0
        )

        dram_read = _dram_read_bytes(
            program, group, cluster_stmts, sizes, entry.tile_dims, origin, n_tiles, params
        )

        dram_write = 0.0
        for t in sorted(written_here):
            if t in promoted:
                continue  # handled below via buffers
            if t in program.liveout or _read_outside(program, t, cluster_stmts):
                dram_write += _tensor_bytes(program, t, params)
        bufs = buffers.get(group.name, [])
        scratch_per_tile = int(
            sum(b.box_elems for b in bufs) * ITEMSIZE * traffic_inflation
        )
        scratch_traffic = 2.0 * scratch_per_tile * n_tiles
        dram_read *= traffic_inflation

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
                parallel_units=max(parallel_units, 1),
                n_parallel_dims=par_dims,
                scratch_bytes_per_tile=scratch_per_tile,
                vectorizable=any(group.coincident) or group.permutable,
            )
        )
    work = ProgramWork(clusters)
    if summary is not None:
        summary[:] = work.as_builtins()
    return work


def _read_outside(program: Program, tensor: str, stmts: Sequence[str]) -> bool:
    """Whether a statement not among ``stmts`` reads ``tensor``."""
    return any(s.name not in stmts for s in program.readers_of(tensor))


def analyze_scheduled(
    scheduled: Scheduled,
    tile_sizes: Optional[Sequence[int]],
    params: Optional[Mapping[str, int]] = None,
) -> ProgramWork:
    """Work model of a start-up heuristic's schedule (the PPCG baselines).

    Each fusion group is its own cluster: intermediates crossing group
    boundaries travel through DRAM; tensors produced and consumed within a
    tile stay in cache (charged as scratch traffic).
    """
    program = scheduled.program
    params = dict(program.params, **(params or {}))

    clusters: List[ClusterWork] = []
    for group in scheduled.groups:
        written_here = {
            program.statement(s).tensor_written() for s in group.statements
        }
        sizes = tdims = None
        if tile_sizes is not None and group.permutable and group.depth > 0:
            sizes = tuple(tile_sizes)[: group.depth]
            tdims = tile_dim_names(group, len(sizes))
        n_tiles, par_dims, parallel_units, origin = _tiling(
            program, group, sizes, tdims, params
        )
        ops = group_ops(program, group, params)
        dram_read = _dram_read_bytes(
            program, group, group.statements, sizes, tdims, origin, n_tiles, params
        )

        dram_write = 0.0
        scratch_traffic = 0.0
        scratch_per_tile = 0
        for t in sorted(written_here):
            if t in program.liveout or _read_outside(program, t, group.statements):
                dram_write += _tensor_bytes(program, t, params)
            else:
                size = _tensor_bytes(program, t, params)
                scratch_traffic += 2.0 * size
                scratch_per_tile += size // max(n_tiles, 1)

        clusters.append(
            ClusterWork(
                name=group.name,
                statements=list(group.statements),
                ops=ops,
                recompute_ops=0.0,
                dram_read_bytes=dram_read,
                dram_write_bytes=dram_write,
                scratch_traffic_bytes=scratch_traffic,
                n_tiles=n_tiles,
                parallel_units=max(parallel_units, 1),
                n_parallel_dims=par_dims,
                scratch_bytes_per_tile=scratch_per_tile,
                vectorizable=any(group.coincident),
                ifs_in_body=len(group.statements) > 1 and not all(group.coincident[:1]),
                wavefront=group.permutable and not any(group.coincident),
            )
        )
    return ProgramWork(clusters)
