"""``repro.baselines`` — the comparators of the evaluation.

* PPCG heuristics (minfuse/smartfuse/maxfuse/hybridfuse) live in
  :mod:`repro.scheduler.fusion` and are costed with ``analyze_scheduled``;
* :func:`partitioned_result` — a fixed partition (Halide's published
  manual schedules, PolyMage's grouping) run through the paper's own
  tiling machinery; :func:`halide_work` costs it with exact per-stage
  regions, :func:`polymage_work` with the ``box_total`` overlap policy
  (group-wide over-approximated halos);
* naive — the untransformed sequential program.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import TargetSpec
from ..core.tile_shapes import CPU
from ..ir import Program
from ..machine import ProgramWork, analyze_optimized, analyze_scheduled
from ..scheduler import MINFUSE, schedule_program
from .manual import (
    PartitionedResult,
    make_group,
    partitioned_result,
    scheduled_from_partition,
)


def halide_work(
    program: Program,
    partition: Sequence[Sequence[str]],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec = CPU,
    params=None,
) -> ProgramWork:
    """Halide manual schedule: a fixed partition with compute_at fusion."""
    res = partitioned_result(program, partition, tile_sizes, target)
    return analyze_optimized(res, params)  # exact per-stage regions


def polymage_work(
    program: Program,
    partition: Sequence[Sequence[str]],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec = CPU,
    params=None,
) -> ProgramWork:
    """PolyMage grouping (given partition), overlapped tiling after fusion."""
    res = partitioned_result(program, partition, tile_sizes, target)
    return analyze_optimized(res, params, overlap="box_total")


def naive_work(program: Program, params=None) -> ProgramWork:
    """The untransformed program: no fusion, no tiling, no vectorisation."""
    sched = schedule_program(program, MINFUSE)
    work = analyze_scheduled(sched, None, params)
    for c in work.clusters:
        c.vectorizable = False
        c.n_parallel_dims = 0
        c.parallel_units = 1
    return work


__all__ = [
    "PartitionedResult",
    "halide_work",
    "make_group",
    "naive_work",
    "partitioned_result",
    "polymage_work",
    "scheduled_from_partition",
]
