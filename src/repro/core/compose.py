"""Algorithm 3 — compositing tiling and fusion across live-out spaces.

Generalises Algorithm 1 to programs with several live-out computation
spaces and intermediate spaces shared between them (Fig. 6):

* live-out spaces are never fused with each other;
* a shared intermediate space is fused into *all* of its uses only when the
  instance subsets each use needs are pairwise disjoint (no redundant
  recomputation, ever);
* otherwise the shared space keeps a plain tiling schedule of its own and
  its transitive producers fall back to their own fusion cluster;
* skipping the original subtree of every fused space implements the
  fine-grained dead-code elimination of Section IV-C for free: instances no
  tile asks for are simply never extended into the tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from ..ir import Program
from ..presburger import Set, UnionSet
from ..scheduler import FusionGroup, Scheduled
from .exposed import intermediate_groups_of
from .tile_shapes import (
    ExtensionScheduleEntry,
    MixedSchedules,
    TargetSpec,
    TilingScheduleEntry,
    CPU,
    construct_tile_shapes,
    effective_tile_sizes,
)
from .footprint import tile_dim_names


def liveout_groups(program: Program, groups: Sequence[FusionGroup]) -> List[FusionGroup]:
    liveout_tensors = set(program.liveout)
    out = []
    for g in groups:
        writes = {program.statement(s).tensor_written() for s in g.statements}
        if writes & liveout_tensors:
            out.append(g)
    return out


def needed_instances(
    program: Program, producer: FusionGroup, consumers: Sequence[FusionGroup]
) -> UnionSet:
    """The instance subset of ``producer`` that ``consumers`` read from.

    This is op0' of Fig. 6: elements of the produced tensors that the
    consumer cluster reads, pulled back through the producer's writes.
    """
    produced = {
        program.statement(s).tensor_written(): program.statement(s)
        for s in producer.statements
    }
    needed: List[Set] = []
    for cons in consumers:
        for cs in cons.statements:
            stmt = program.statement(cs)
            for (_, tensor), access in stmt.read_relations().maps.items():
                writer = produced.get(tensor)
                if writer is None:
                    continue
                elements = access.range()
                instances = writer.write_relation().reverse().apply_to_set(elements)
                needed.append(instances)
    return UnionSet(needed)


def resolve_shared_spaces(
    program: Program,
    liveouts: Sequence[FusionGroup],
    inters: Dict[str, List[FusionGroup]],
) -> List[FusionGroup]:
    """Apply Fig. 6's rule; returns the spaces forced to stand alone.

    ``inters`` maps live-out group name to its intermediate list and is
    *mutated*: shared spaces whose needed subsets overlap are removed from
    every list.
    """
    usage: Dict[int, List[FusionGroup]] = {}
    by_id: Dict[int, FusionGroup] = {}
    for L in liveouts:
        for g in inters[L.name]:
            usage.setdefault(id(g), []).append(L)
            by_id[id(g)] = g

    standalone: List[FusionGroup] = []
    for gid, users in usage.items():
        if len(users) < 2:
            continue
        g = by_id[gid]
        subsets = [
            needed_instances(program, g, [L] + [x for x in inters[L.name] if x is not g])
            for L in users
        ]
        disjoint = True
        for i in range(len(subsets)):
            for j in range(i + 1, len(subsets)):
                if not subsets[i].intersect(subsets[j]).is_empty():
                    disjoint = False
                    break
            if not disjoint:
                break
        if not disjoint:
            # Line 5 of Algorithm 3: the shared space gets a tiling
            # schedule of its own instead of extension schedules.
            for L in users:
                inters[L.name] = [x for x in inters[L.name] if x is not g]
            standalone.append(g)
    return standalone


def composite_tiling_fusion(
    program: Program,
    scheduled: Scheduled,
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec = CPU,
) -> MixedSchedules:
    """Algorithm 3, steps 1-2: one ``Mixed_Schedules`` for the whole program.

    Step 3 (tree rewriting) is :func:`repro.core.post_fusion.apply_mixed_schedules`.
    """
    groups = scheduled.groups
    liveouts = liveout_groups(program, groups)
    inters: Dict[str, List[FusionGroup]] = {
        L.name: intermediate_groups_of(program, L, groups) for L in liveouts
    }
    with obs.span("resolve_shared_spaces", liveouts=len(liveouts)):
        standalone = resolve_shared_spaces(program, liveouts, inters)
        obs.annotate(standalone=len(standalone))

    mixed = MixedSchedules()
    for L in liveouts:
        sub = construct_tile_shapes(program, L, inters[L.name], tile_sizes, target)
        mixed.entries.extend(sub.entries)

    # Shared spaces that could not fuse, and any groups not reached at all,
    # keep plain tiling schedules in their original position.
    covered = {id(e.group) for e in mixed.entries}
    for g in standalone + [g for g in groups if id(g) not in covered]:
        if id(g) in covered:
            continue
        covered.add(id(g))
        _append_standalone(mixed, g, tile_sizes, target)

    with obs.span("unfuse_dangling_readers"):
        _unfuse_dangling_readers(program, mixed, tile_sizes, target)
    return mixed


def _append_standalone(mixed, group, tile_sizes, target) -> None:
    sizes = (
        effective_tile_sizes(group, tile_sizes, target)
        if group.permutable and group.n_parallel() >= target.min_m
        else None
    )
    tdims = tile_dim_names(group, len(sizes)) if sizes else ()
    mixed.entries.append(TilingScheduleEntry(group, sizes, tdims))


def _unfuse_dangling_readers(
    program: Program,
    mixed: MixedSchedules,
    tile_sizes,
    target: TargetSpec,
) -> None:
    """Fixed point: a fused (skipped) space must have *all* its readers
    inside clusters that fuse it.

    Algorithm 1's recomputation and parallelism guards can leave a consumer
    of a fused space outside every fusing cluster (it would then read
    values the skipped original never produced).  Such spaces fall back to
    standalone tiling schedules; the unfusing cascades to their producers.
    """
    from .tile_shapes import ExtensionScheduleEntry

    while True:
        clusters = mixed.fused_groups()
        stmt_cluster: Dict[str, int] = {}
        for ci, cluster in enumerate(clusters):
            for g in cluster:
                for s in g.statements:
                    stmt_cluster[s] = ci
        offender = None
        for entry in mixed.entries:
            if not isinstance(entry, ExtensionScheduleEntry):
                continue
            g = entry.group
            fusing_clusters = {
                ci
                for ci, cluster in enumerate(clusters)
                if any(x is g for x in cluster)
            }
            for s in g.statements:
                tensor = program.statement(s).tensor_written()
                for reader in program.readers_of(tensor):
                    if reader.name in g.statements:
                        continue
                    if stmt_cluster.get(reader.name) not in fusing_clusters:
                        offender = g
                        break
                if offender:
                    break
            if offender:
                break
        if offender is None:
            return
        mixed.entries = [
            e
            for e in mixed.entries
            if not (
                isinstance(e, ExtensionScheduleEntry) and e.group is offender
            )
        ]
        _append_standalone(mixed, offender, tile_sizes, target)
