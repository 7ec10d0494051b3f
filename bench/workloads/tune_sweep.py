"""Workload ``tune_sweep``: a 25-point tile-size sweep per program.

The primary operation is one ``autotune_tile_sizes`` sweep (candidates
8..128, serial) of one program against a fresh on-disk ``CompileCache``,
memo tables cleared first: the optimizer layers on the memo *hit* path
(parametric reuse across tile sizes) plus ``repro.machine``,
``service.driver`` and the cache's writes.  The reference operation is
the same sweep through a **new** ``CompileCache`` object on the directory
the first one filled: the cache's disk reads and decode, no compile.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from repro.api import (
    CompileCache,
    CompileOptions,
    CompileRequest,
    autotune_tile_sizes,
    get_workload,
    optimize,
)
from repro.machine import analyze_optimized, cpu_time
from repro.presburger import memo
from repro.scheduler.autotune import liveout_extent_bounds
from repro.service.driver import load_program_memos, spill_program_memos
from repro.service.fingerprint import fingerprint_program

import harness
from spans import Recorder

#: Three image pipelines and three small kernels: sweeps from 0.1 s to
#: 0.5 s, stencil and contraction access patterns.
PROGRAMS: List[Tuple[str, int]] = [
    ("harris", 512),
    ("unsharp_mask", 512),
    ("bilateral_grid", 512),
    ("conv2d", 256),
    ("2mm", 256),
    ("covariance", 256),
]
CANDIDATES = [8, 16, 32, 64, 128]
THREADS = 32  # autotune_tile_sizes' default

WARMUP_ROUNDS = 1
SETUP_REPEATS = 5


def build_programs():
    return {name: get_workload(name, size) for name, size in PROGRAMS}


def sweep(program, cache_dir: str):
    """One sweep as a user runs it; returns (TuneResult, cache)."""
    cache = CompileCache(cache_dir=cache_dir)
    memo.clear_all()
    result = autotune_tile_sizes(
        program, CompileOptions(mode="serial", cache=cache), candidates=CANDIDATES
    )
    return result, cache


def replay(program, cache_dir: str, phase: str, rec: Recorder):
    """The sweep candidate by candidate, through the public functions
    ``autotune_tile_sizes`` and ``compile_batch`` call, one span per
    layer.  Returns (best_sizes, best_time)."""
    cache = CompileCache(cache_dir=cache_dir)
    memo.clear_all()
    bounds = liveout_extent_bounds(program, 2)
    requests = [
        CompileRequest(program, tile_sizes=sizes, tag="autotune")
        for sizes in itertools.product(CANDIDATES, repeat=2)
        if all(s <= b for s, b in zip(sizes, bounds))
    ]
    results = {}
    get_span = "service.disk_get" if phase == "diskwarm" else "service.miss_get"
    for r in requests:
        with rec.span(get_span):
            hit = cache.get(r.fingerprint)
        if hit is not None:
            results[r.tile_sizes] = hit
    missing = [r for r in requests if r.tile_sizes not in results]
    if missing:
        program_fp = fingerprint_program(program)
        with rec.span("service.memo_io"):
            load_program_memos(cache, program_fp)
        for r in missing:
            with rec.span("sweep.compile"):
                try:
                    results[r.tile_sizes] = optimize(
                        program, CompileOptions(tile_sizes=r.tile_sizes)
                    )
                except Exception:
                    pass  # an infeasible tiling: the sweep records it and moves on
        with rec.span("service.memo_io"):
            spill_program_memos(cache, program_fp)
        for r in missing:
            if r.tile_sizes in results:
                with rec.span("service.put"):
                    cache.put(r.fingerprint, results[r.tile_sizes])
    best = (float("inf"), ())
    for r in requests:
        if r.tile_sizes not in results:
            continue
        with rec.span("sweep.analyze"):
            t = cpu_time(analyze_optimized(results[r.tile_sizes]), THREADS)
        best = min(best, (t, r.tile_sizes))
    cache.close()
    return best[1], best[0]


LAYERS = {
    "sweep.compile": "sweep.compile_s",
    "service.put": "service.put_s",
    "service.memo_io": "service.memo_io_s",
    "service.miss_get": "service.miss_get_s",
    "service.disk_get": "service.disk_get_s",
    "sweep.analyze": "sweep.analyze_s",
    "sweep.op": "sweep.unattributed_s",
}


def run(budget: harness.Budget) -> harness.Outcome:
    setup = harness.fresh_process_seconds(
        "from workloads import tune_sweep; tune_sweep.build_programs()",
        budget.setup_repeats(SETUP_REPEATS),
    )
    programs = build_programs()
    rec = Recorder(enabled=budget.trace)
    failures: List[str] = []
    best: Dict[str, Tuple] = {}
    counts = {"service.puts": 0, "service.disk_hits": 0, "service.misses": 0,
              "service.disk_bytes": 0, "scheduler.exact_evals": 0, "scheduler.skipped": 0}
    modeled: Dict[str, float] = {}
    memo_delta = [0, 0]
    attempted = 0

    def agree(name: str, sizes, how: str) -> None:
        nonlocal attempted
        attempted += 1
        if best.setdefault(name, tuple(sizes)) != tuple(sizes):
            failures.append(f"{name}: {how} sweep chose {sizes}, not {best[name]}")

    def tally(name: str, phase: str, result, cache, memo_before) -> None:
        modeled[name] = result.best_time
        counts["service.puts"] += cache.stats.stores
        counts["service.disk_hits"] += cache.stats.disk_hits
        counts["service.misses"] += cache.stats.misses
        if phase == "cold":
            counts["service.disk_bytes"] += cache.info()["disk_bytes"]
            counts["scheduler.exact_evals"] += result.exact_evaluations
            counts["scheduler.skipped"] += sum(
                1 for why in result.failures.values() if why.startswith("skipped:")
            )
            after = memo.stats()
            for i, kind in enumerate(("hits", "misses")):
                memo_delta[i] += sum(after[t][kind] - memo_before[t][kind] for t in memo_before)

    def one_round(order, traced: bool) -> harness.Round:
        out = harness.Round(traced=traced)
        if not traced:
            counts.update(dict.fromkeys(counts, 0))
        out.tick()
        for name, _ in order:
            cache_dir = tempfile.mkdtemp(prefix=f"sweep-{name}-", dir=".")
            try:
                for phase, samples in (("cold", out.primary), ("diskwarm", out.reference)):
                    memo_before = memo.stats()
                    t0 = time.perf_counter()
                    if traced:
                        with rec.span("sweep.op", op=f"{name}.{phase}"):
                            sizes, _ = replay(programs[name], cache_dir, phase, rec)
                        samples.append((name, time.perf_counter() - t0))
                    else:
                        result, cache = sweep(programs[name], cache_dir)
                        samples.append((name, time.perf_counter() - t0))
                        sizes = result.best_sizes
                        tally(name, phase, result, cache, memo_before)
                        cache.close()
                    agree(name, sizes, f"replayed {phase}" if traced else phase)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            out.tick()
        return out

    rounds = harness.run_rounds(one_round, PROGRAMS, budget, WARMUP_ROUNDS, rec.reset)

    metrics, raw, sample_counts = harness.end_to_end(rounds, setup, harness.vm_hwm_mb())

    per_layer: Dict[str, float] = {}
    if budget.trace:
        per_layer.update(harness.layer_times(rec.self_times(), LAYERS, rounds))
        # Counts of the last untraced round: they repeat exactly.
        per_layer.update(counts)
        per_layer["presburger.sweep_memo_hit_ratio"] = memo_delta[0] / max(sum(memo_delta), 1)
        per_layer["machine.modeled_ms"] = 1e3 * sum(modeled.values())
        per_layer.update(harness.program_rows(rounds, "sweep", "cold_ms", "diskwarm_ms"))
        per_layer["trace_overhead_share"] = harness.trace_overhead_share(rounds)

    return harness.Outcome(
        end_to_end=metrics,
        raw_timings=raw,
        sample_counts=sample_counts,
        per_layer=per_layer,
        attempted=attempted,
        failures=failures,
        spans=rec.spans,
        notes={"best_sizes": {k: list(v) for k, v in best.items()}},
    )
