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
from typing import Dict, Optional, Sequence

from repro import CompileOptions, obs
from repro.baselines import heuristic_result, strategies
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time, gpu_time
from repro.pipelines import IMAGE_PIPELINES
from repro.presburger import memo

BENCH_SIZE = 1024
#: The 8-level pyramid of multiscale interpolation needs the full image.
BENCH_SIZES = {"multiscale_interp": 2048}
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def image_program(name: str, size: Optional[int] = None):
    mod = IMAGE_PIPELINES[name]
    if size is None:
        size = BENCH_SIZES.get(name, BENCH_SIZE)
    return mod, mod.build(size)


def compare(program, target: str, tile_sizes):
    """Every strategy's result (``repro.baselines.strategies``) and its
    modeled work, each by strategy name; a strategy whose scheduler
    refused the program has ``None`` for both."""
    results = strategies(program, CompileOptions(target=target, tile_sizes=tile_sizes))
    work = {
        name: None if result is None else analyze_optimized(result)
        for name, result in results.items()
    }
    return results, work


#: Cold compiles per strategy; the compile columns report the fastest.
COLD_COMPILES = 3


def cold_compile_seconds(prog, strategy, tile_sizes):
    """``strategy``'s compile time with every memo table empty: the best of
    :data:`COLD_COMPILES` cold compiles, since one compile on a shared
    host can read half again as slow as the next one.

    ``strategies()`` builds ours and naive first, so a heuristic compiled
    after them reads their start-up schedule from the memo and its
    ``compile_seconds`` times a lookup.  Here each strategy compiles on its
    own, from cold, and a start-up memo hit fails the run.
    """
    options = CompileOptions(target="cpu", tile_sizes=tile_sizes)
    best = float("inf")
    for _ in range(COLD_COMPILES):
        memo.clear_all()
        with obs.collect() as report:
            if strategy == "ours":
                result = optimize(prog, options)
            else:
                result = heuristic_result(prog, strategy, tile_sizes, options.target)
        assert report.counters.get("scheduler.startup_memo.hit", 0) == 0, strategy
        best = min(best, result.compile_seconds)
    return best


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


def save_results(name: str, data, quick: bool = False) -> str:
    """Write ``benchmarks/results/<name>.json``.  A ``quick`` (smoke) run
    writes ``benchmarks/results/quick/<name>.json`` instead, which git
    ignores: a smoke check leaves the committed results as they are."""
    out_dir = os.path.join(RESULTS_DIR, "quick") if quick else RESULTS_DIR
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
    return path


def save_perf_snapshot(name: str, gauges: Dict[str, float], **meta) -> str:
    """Write a ``repro-metrics/1`` snapshot of benchmark timings.

    ``gauges`` maps metric names to seconds (or other numeric readings);
    the result is what ``repro stats diff`` consumes.  The snapshot lands in
    ``benchmarks/results/<name>.json`` (in ``quick/`` when ``meta`` says
    ``quick=True``).
    """
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    for metric, value in gauges.items():
        reg.set_gauge(metric, value)
    reg.meta.update(meta)
    return save_results(name, reg.snapshot(), quick=bool(meta.get("quick")))
