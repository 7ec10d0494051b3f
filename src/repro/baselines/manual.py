"""Partition-driven schedules: a grouping fixed by a schedule's author.

Two levels of fidelity:

* :func:`scheduled_from_partition` — a :class:`Scheduled` whose fusion
  groups are given explicitly (the PPCG heuristic groupings the paper
  reports for equake), tiled and costed as the heuristics' own schedules
  are;
* :func:`partitioned_result` — runs the paper's own tiling/extension
  machinery *within* each given partition group (live-out stage of the
  group tiled, other stages pulled in as extension schedules).  This
  models Halide's ``compute_at`` and PolyMage's overlapped tiling: fused
  groups recompute halos, but the *grouping* is fixed by the schedule
  author instead of being derived from the data space.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..core import (
    MixedSchedules,
    OptimizeResult,
    TargetSpec,
    apply_mixed_schedules,
    construct_tile_shapes,
)
from ..core.compose import unfuse_dangling_readers
from ..deps import memory_deps
from ..ir import Program
from ..scheduler import FusionGroup, Scheduled, groups_tree, identity_rows
from ..scheduler.parallelism import band_attributes


def _make_group(
    program: Program, deps, statements: Sequence[str], name: str
) -> FusionGroup:
    depth = min(len(program.statement(s).dims) for s in statements)
    rows = {
        s: identity_rows(program.statement(s).dims, depth) for s in statements
    }
    coincident, permutable = band_attributes(
        deps, list(statements), rows, depth, program.params
    )
    return FusionGroup(
        name=name,
        statements=sorted(statements, key=program.statement_index),
        depth=depth,
        rows=rows,
        coincident=coincident,
        permutable=permutable,
    )


def scheduled_from_partition(
    program: Program, partition: Sequence[Sequence[str]]
) -> Scheduled:
    """A Scheduled whose groups are exactly the given statement partition."""
    _check_partition(program, partition)
    deps = memory_deps(program)
    groups = [
        _make_group(program, deps, part, f"M{i}")
        for i, part in enumerate(partition)
    ]
    tree = groups_tree(program, groups)
    return Scheduled(program, "manual", groups, deps, tree)


def partitioned_result(
    program: Program,
    partition: Sequence[Sequence[str]],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
) -> OptimizeResult:
    """Tile + fuse within each partition group using the paper's machinery.

    Within a group, the stage producing data consumed outside the group
    (or live-out) is the tiled space; the remaining stages become extension
    schedules, recomputing their per-tile footprints — Halide's
    ``compute_at`` semantics under a fixed grouping.  A fused stage whose
    output another group also reads is unfused again, as
    :func:`repro.core.compose.unfuse_dangling_readers` unfuses it for the
    paper's own result: the skipped stage would otherwise never write what
    that reader reads.  The tree is lowered as :func:`repro.core.optimize`
    lowers its own (``apply_mixed_schedules``), and the result is costed
    exactly, per stage.
    """
    t0 = time.perf_counter()
    _check_partition(program, partition)
    deps = memory_deps(program)
    # Build one group per *statement* so Algorithm 1 sees separated
    # computation spaces inside each partition group.
    counter = 0
    mixed = MixedSchedules()
    all_groups: List[FusionGroup] = []
    for part in partition:
        part_groups = []
        for s in part:
            part_groups.append(_make_group(program, deps, [s], f"M{counter}"))
            counter += 1
        all_groups.extend(part_groups)
        liveout_g = _group_liveout(program, part, part_groups)
        inters = [g for g in part_groups if g is not liveout_g]
        inters.reverse()  # nearest producer first (program order reversed)
        sub = construct_tile_shapes(program, liveout_g, inters, tile_sizes, target)
        mixed.entries.extend(sub.entries)
    unfuse_dangling_readers(program, mixed, tile_sizes, target)
    scheduled = Scheduled(
        program, "manual", all_groups, deps, groups_tree(program, all_groups)
    )
    tree = apply_mixed_schedules(program, scheduled, mixed)
    return OptimizeResult(
        program, target, mixed.first_tile_sizes(), scheduled, mixed, tree,
        time.perf_counter() - t0,
    )


def _group_liveout(
    program: Program, part: Sequence[str], part_groups: Sequence[FusionGroup]
) -> FusionGroup:
    """The stage of the partition group whose output escapes the group."""
    part_set = set(part)
    escaping = []
    for g in part_groups:
        (s,) = g.statements
        tensor = program.statement(s).tensor_written()
        if tensor in program.liveout:
            escaping.append(g)
            continue
        readers = {r.name for r in program.readers_of(tensor)}
        if readers - part_set:
            escaping.append(g)
    if not escaping:
        return part_groups[-1]
    # The last escaping stage anchors the tiling; earlier escaping stages
    # will simply not be fused (their footprints are not tracked).
    return escaping[-1]


def _check_partition(program: Program, partition: Sequence[Sequence[str]]) -> None:
    seen: List[str] = []
    for part in partition:
        seen.extend(part)
    names = list(program.statement_names)
    if sorted(seen) != sorted(names):
        missing = set(names) - set(seen)
        extra = set(seen) - set(names)
        raise ValueError(
            f"partition does not cover the program exactly "
            f"(missing={sorted(missing)}, unknown={sorted(extra)})"
        )
