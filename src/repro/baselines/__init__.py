"""``repro.baselines`` — every strategy of the evaluation, in one shape.

:func:`strategies` maps a program to one
:class:`~repro.core.OptimizeResult` per strategy the paper compares, so
lowering, validating and costing a strategy is one loop over the map and
:func:`repro.machine.analyze_optimized` costs each under the
``cost_policy`` its builder here set:

* ``ours`` — :func:`repro.core.optimize`, costed ``"exact"``;
* ``naive`` — the untransformed program: minfuse's one-statement groups
  in program order, untiled, costed ``"serial"`` (one core, no vectors);
* ``halide`` / ``polymage`` — the pipeline module's published partition
  (Halide's manual schedule, PolyMage's grouping) tiled and fused by the
  paper's own machinery within each group
  (:func:`~repro.baselines.manual.partitioned_result`); Halide is costed
  ``"exact"``, PolyMage ``"box_total"`` (:func:`polymage_overlap`).  Absent
  where the module publishes no partition;
* ``minfuse`` / ``smartfuse`` / ``maxfuse`` / ``hybridfuse`` — the PPCG
  and Pluto start-up heuristics (:mod:`repro.scheduler.fusion`), every
  tilable group tiled alike, costed ``"per_group"``.  Equake takes the
  groupings the paper quotes (``equake.PARTITIONS``) instead.  A
  heuristic whose scheduler raises ``SchedulerError`` maps to ``None``.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from ..core import (
    MixedSchedules,
    OptimizeResult,
    TargetSpec,
    TilingScheduleEntry,
    optimize,
    tile_dim_names,
)
from ..ir import Program
from ..options import CompileOptions
from ..pipelines import IMAGE_PIPELINES, equake
from ..scheduler import (
    HEURISTICS,
    MINFUSE,
    Scheduled,
    SchedulerError,
    schedule_program,
    tile_group,
)
from .manual import partitioned_result, scheduled_from_partition

#: The pipeline modules that may publish a comparator's partition.
_PUBLISHED = dict(IMAGE_PIPELINES, equake=equake)


def strategies(
    program: Program, options: CompileOptions
) -> Dict[str, Optional[OptimizeResult]]:
    """Every strategy's result for ``program``, ours first.

    ``options`` compiles ours; the others take its target and tile sizes.
    A heuristic result's ``compile_seconds`` is its scheduler's time.
    """
    spec, tiles = options.target, options.tile_sizes
    results: Dict[str, Optional[OptimizeResult]] = {
        "ours": optimize(program, options),
        "naive": _scheduled_result(
            partial(schedule_program, program, MINFUSE), None, spec, "serial"
        ),
    }
    module = _PUBLISHED.get(program.name)
    if hasattr(module, "halide_partition"):
        results["halide"] = partitioned_result(
            program, module.halide_partition(program), tiles, spec
        )
    if hasattr(module, "polymage_partition"):
        results["polymage"] = polymage_overlap(
            partitioned_result(program, module.polymage_partition(program), tiles, spec)
        )
    quoted = getattr(module, "PARTITIONS", {})
    for heuristic in HEURISTICS:
        try:
            if heuristic in quoted:
                results[heuristic] = _scheduled_result(
                    partial(scheduled_from_partition, program, quoted[heuristic]),
                    tiles,
                    spec,
                )
            else:
                results[heuristic] = heuristic_result(program, heuristic, tiles, spec)
        except SchedulerError:
            results[heuristic] = None
    return results


def heuristic_result(
    program: Program,
    heuristic: str,
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
) -> OptimizeResult:
    """One start-up heuristic's schedule as :func:`strategies` builds it."""
    return _scheduled_result(
        partial(schedule_program, program, heuristic), tile_sizes, target
    )


def polymage_overlap(result: OptimizeResult) -> OptimizeResult:
    """``result``'s schedule costed as PolyMage costs its own: every fused
    stage grown to its group's widest halo (``"box_total"``).  The copy
    starts uncosted, so its answer never reaches ``result``'s summary."""
    return dataclasses.replace(result, cost_policy="box_total", work_summary=[])


def _scheduled_result(
    schedule: Callable[[], Scheduled],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
    policy: str = "per_group",
) -> OptimizeResult:
    """The schedule ``schedule()`` builds (timed) as a result: one tiling
    entry per group and no extension, so each group is its own cluster.
    A group is tiled iff tile sizes are given, it is permutable and its
    band is not empty; the tree tiles the same groups."""
    t0 = time.perf_counter()
    scheduled = schedule()
    seconds = time.perf_counter() - t0
    mixed = MixedSchedules()
    for group in scheduled.groups:
        sizes, dims = None, ()
        if tile_sizes is not None and group.permutable and group.depth > 0:
            sizes = tuple(tile_sizes)[: group.depth]
            dims = tile_dim_names(group, len(sizes))
            tile_group(scheduled.tree, group, sizes)
        mixed.entries.append(TilingScheduleEntry(group, sizes, dims))
    return OptimizeResult(
        scheduled.program, target, mixed.first_tile_sizes(), scheduled, mixed,
        scheduled.tree, seconds, cost_policy=policy,
    )


__all__ = ["heuristic_result", "polymage_overlap", "strategies"]
