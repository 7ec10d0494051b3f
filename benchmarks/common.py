"""Shared harness for the paper-reproduction benchmarks.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation: it builds the workloads, runs the paper's pass and every
baseline, evaluates the machine models, prints the table in the paper's
layout and saves the raw numbers to ``benchmarks/results/*.json`` (which
EXPERIMENTS.md references).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import CompileOptions
from repro.baselines import (
    halide_result,
    naive_work,
    partitioned_result,
    polymage_work,
    scheduled_from_partition,
)
from repro.core import GPU, CPU, optimize
from repro.machine import (
    ProgramWork,
    analyze_optimized,
    analyze_scheduled,
    cpu_time,
    gpu_time,
)
from repro.pipelines import IMAGE_PIPELINES
from repro.scheduler import (
    HYBRIDFUSE,
    MAXFUSE,
    MINFUSE,
    SMARTFUSE,
    SchedulerError,
    schedule_program,
)

BENCH_SIZE = 1024
#: The 8-level pyramid of multiscale interpolation needs the full image.
BENCH_SIZES = {"multiscale_interp": 2048}
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Modeled instruction-level-parallelism bonus of Halide's manual unrolling
#: of the channel dimension (Section VI-B) — applies on GPU only.
HALIDE_UNROLL_BONUS = {"bilateral_grid": 1.12, "unsharp_mask": 1.10}


def image_program(name: str, size: Optional[int] = None):
    mod = IMAGE_PIPELINES[name]
    if size is None:
        size = BENCH_SIZES.get(name, BENCH_SIZE)
    return mod, mod.build(size)


def our_cpu_work(prog, tile_sizes) -> Tuple[ProgramWork, float]:
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=tile_sizes))
    return analyze_optimized(result), result.compile_seconds


def our_gpu_work(prog, tile_sizes) -> Tuple[ProgramWork, float]:
    result = optimize(prog, CompileOptions(target="gpu", tile_sizes=tile_sizes))
    return analyze_optimized(result), result.compile_seconds


def heuristic_cpu_work(prog, heuristic, tile_sizes) -> Tuple[ProgramWork, float]:
    t0 = time.perf_counter()
    sched = schedule_program(prog, heuristic)
    elapsed = time.perf_counter() - t0
    return analyze_scheduled(sched, tile_sizes), elapsed


def halide_cpu_work(mod, prog, tile_sizes) -> ProgramWork:
    res = halide_result(prog, mod.halide_partition(prog), tile_sizes, CPU)
    return analyze_optimized(res)


def halide_gpu_time(mod, prog, tile_sizes, name: str) -> float:
    res = halide_result(prog, mod.halide_partition(prog), tile_sizes, GPU)
    t = gpu_time(analyze_optimized(res))
    return t / HALIDE_UNROLL_BONUS.get(name, 1.0)


def polymage_cpu_work(mod, prog, tile_sizes) -> ProgramWork:
    return polymage_work(prog, mod.polymage_partition(prog), tile_sizes, CPU)


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def fmt_speedup(x: float) -> str:
    return f"{x:.2f}x"


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    print()


def save_results(name: str, data) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
    return path


def save_perf_snapshot(name: str, gauges: Dict[str, float], **meta) -> str:
    """Write a ``repro-metrics/1`` snapshot of benchmark timings.

    ``gauges`` maps metric names to seconds (or other numeric readings);
    the result is what ``repro stats diff`` consumes.  The snapshot lands in
    ``benchmarks/results/<name>.json``.
    """
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    for metric, value in gauges.items():
        reg.set_gauge(metric, value)
    reg.meta.update(meta)
    return save_results(name, reg.snapshot())
