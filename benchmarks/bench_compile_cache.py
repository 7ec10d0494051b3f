"""Compilation-service benchmark: cold vs. warm compiles and autotuning,
and cross-process memo warm-starts.

The service layer's claim is that a second structurally identical compile
is (nearly) free.  This benchmark measures it twice: per-workload cold
compile time against a warm ``cached_optimize`` hit (memory tier and disk
tier), and autotune wall time cold against a repeat with a warm cache.

It also measures the *memo spill* layer: a fresh process whose result
cache is empty but whose presburger memo tables warm-start from the
snapshot a previous process spilled through the disk cache.  Each run is
one ``cached_optimize`` (what a fresh ``repro optimize`` does), the one
entry point that loads and spills snapshots; a batch never does.  Both
sides recompile from scratch — only the memo state differs — in
:data:`WARM_START_RUNS` rounds, and each round's warm-started total is
compared with its cold total; every schedule tree must hash identically
(compiles are byte-deterministic).  Results
land in ``benchmarks/results/compile_cache.json`` (a quick run's in the
git-ignored ``benchmarks/results/quick/``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import image_program, print_table, save_results
from repro import CompileOptions
from repro.pipelines import conv2d, polybench
from repro.scheduler.autotune import autotune_tile_sizes
from repro.service import CompileCache, cached_optimize

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

TUNE_CANDIDATES = (8, 16, 32, 64)

#: The 15 benchmark workloads of the paper's evaluation, at compile-bench
#: sizes (sizes only set parameter values; the constraint systems the
#: compiler solves are size-independent).
WARM_START_WORKLOADS = [
    ("bilateral_grid", 512),
    ("camera_pipeline", 512),
    ("harris", 512),
    ("local_laplacian", 512),
    ("multiscale_interp", 512),
    ("unsharp_mask", 512),
    ("2mm", 256),
    ("3mm", 256),
    ("atax", 256),
    ("bicg", 256),
    ("covariance", 256),
    ("doitgen", 32),
    ("gemver", 256),
    ("mvt", 256),
    ("conv2d", 128),
]

QUICK_WARM_START_WORKLOADS = [("harris", 512), ("atax", 256), ("conv2d", 128)]

#: Rounds of fresh-process compiles, one per side and workload each; the
#: gate needs the warm-started total to win a majority of them.
WARM_START_RUNS = 7

#: Subprocess payload: one ``cached_optimize`` in a genuinely fresh
#: process.  The result store is cleared first, so the compile always runs;
#: whether the memo tables warm-start depends only on what an earlier
#: process spilled into ``cache_dir``.
_CHILD = """
import hashlib, json, sys, time
from repro.api import CompileOptions, default_tile_sizes, get_workload
from repro.codegen import print_tree
from repro.presburger import memo
from repro.service import CompileCache, cached_optimize

name, size, cache_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
prog = get_workload(name, size)
cache = CompileCache(cache_dir=cache_dir)
cache.clear(results=True, memos=False)
options = CompileOptions(target="cpu", tile_sizes=default_tile_sizes(name), cache=cache)
t0 = time.perf_counter()
result = cached_optimize(prog, options)
elapsed = time.perf_counter() - t0
stats = memo.stats()
tree = print_tree(result.tree, prog)
json.dump({
    "seconds": elapsed,
    "warm_hits": sum(v["warm_hits"] for v in stats.values()),
    "tree_sha": hashlib.sha256(tree.encode()).hexdigest(),
}, sys.stdout)
"""


def _compile_in_subprocess(name: str, size: int, cache_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name, str(size), cache_dir],
        capture_output=True,
        env=env,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child failed\n{proc.stderr.decode()}")
    return json.loads(proc.stdout)


def measure_warm_start(workloads):
    """Cold vs. memo-warm-started compile, each in its own process, in
    :data:`WARM_START_RUNS` rounds.  A round compiles every workload cold and then
    warm-started, so both sides of a round run within about a second of
    each other.  Round 0's cold run spills the snapshot every warm run of
    its workload reads; the later cold runs each get a fresh directory.
    A row holds each side's median; ``rounds`` holds each round's totals."""
    runs_of = {name: ([], []) for name, _ in workloads}
    with tempfile.TemporaryDirectory() as root:
        for i in range(WARM_START_RUNS):
            for name, size in workloads:
                colds, warms = runs_of[name]
                cache_dir = os.path.join(root, name)
                cold_dir = cache_dir if i == 0 else os.path.join(root, f"{name}-{i}")
                colds.append(_compile_in_subprocess(name, size, cold_dir))
                warms.append(_compile_in_subprocess(name, size, cache_dir))
    rows, raw = [], {}
    for name, (colds, warms) in runs_of.items():
        assert all(c["warm_hits"] == 0 for c in colds), (name, colds)
        assert all(w["warm_hits"] > 0 for w in warms), (name, warms)  # snapshot hit
        shas = {r["tree_sha"] for r in colds + warms}
        assert len(shas) == 1, name  # byte-determinism
        cold = statistics.median(c["seconds"] for c in colds)
        warm = statistics.median(w["seconds"] for w in warms)
        warm_hits = min(w["warm_hits"] for w in warms)
        speedup = cold / warm if warm else float("inf")
        raw[name] = {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "cold_runs": [c["seconds"] for c in colds],
            "warm_runs": [w["seconds"] for w in warms],
            "warm_hits": warm_hits,
            "speedup": speedup,
            "tree_sha": shas.pop(),
        }
        rows.append(
            [
                name,
                f"{cold * 1e3:.1f}",
                f"{warm * 1e3:.1f}",
                warm_hits,
                f"{speedup:.2f}x",
            ]
        )
    rounds = [
        {
            side: sum(r[f"{side}_runs"][i] for r in raw.values())
            for side in ("cold", "warm")
        }
        for i in range(WARM_START_RUNS)
    ]
    return rows, raw, rounds


def bench_workloads():
    _, harris = image_program("harris", 512)
    return [
        ("harris", harris, (32, 256)),
        ("conv2d", conv2d.build({"H": 128, "W": 128, "KH": 3, "KW": 3}), (32, 32)),
        ("atax", polybench.BUILDERS["atax"](256), (32, 32)),
    ]


def measure_cold_warm():
    rows, raw = [], {}
    for name, prog, tiles in bench_workloads():
        with tempfile.TemporaryDirectory() as cache_dir:
            cache = CompileCache(cache_dir=cache_dir)
            t0 = time.perf_counter()
            cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=tiles, cache=cache))
            cold = time.perf_counter() - t0

            t0 = time.perf_counter()
            cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=tiles, cache=cache))
            warm_memory = time.perf_counter() - t0

            disk_only = CompileCache(cache_dir=cache_dir)
            t0 = time.perf_counter()
            cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=tiles, cache=disk_only))
            warm_disk = time.perf_counter() - t0
            assert cache.stats.memory_hits == 1, cache.stats
            assert disk_only.stats.disk_hits == 1, disk_only.stats

        raw[name] = {
            "cold_seconds": cold,
            "warm_memory_seconds": warm_memory,
            "warm_disk_seconds": warm_disk,
            "speedup_memory": cold / warm_memory if warm_memory else float("inf"),
            "speedup_disk": cold / warm_disk if warm_disk else float("inf"),
        }
        rows.append(
            [
                name,
                f"{cold * 1e3:.1f}",
                f"{warm_memory * 1e3:.1f}",
                f"{warm_disk * 1e3:.1f}",
                f"{raw[name]['speedup_memory']:.1f}x",
            ]
        )
    return rows, raw


def measure_autotune():
    prog = conv2d.build({"H": 128, "W": 128, "KH": 3, "KW": 3})

    t0 = time.perf_counter()
    serial = autotune_tile_sizes(prog, candidates=TUNE_CANDIDATES, dims=2)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = CompileCache(cache_dir=cache_dir)
        autotune_tile_sizes(prog, options=CompileOptions(cache=cache, mode="serial"), candidates=TUNE_CANDIDATES, dims=2)
        t0 = time.perf_counter()
        warm = autotune_tile_sizes(prog, options=CompileOptions(cache=cache, mode="serial"), candidates=TUNE_CANDIDATES, dims=2)
        warm_s = time.perf_counter() - t0
        assert warm.best_sizes == serial.best_sizes

    raw = {
        "workload": "conv2d-128",
        "candidates": len(serial.evaluations) + len(serial.failures),
        "serial_seconds": serial_s,
        "warm_cache_seconds": warm_s,
        "warm_speedup": serial_s / warm_s if warm_s else float("inf"),
        "best_sizes": list(serial.best_sizes),
    }
    rows = [
        [
            raw["workload"],
            raw["candidates"],
            f"{serial_s:.2f}",
            f"{warm_s:.2f}",
            f"{raw['warm_speedup']:.1f}x",
        ]
    ]
    return rows, raw


def run(quick: bool = False):
    cold_rows, cold_raw = measure_cold_warm()
    print_table(
        "Cold vs. warm compile time (ms)",
        ["benchmark", "cold", "warm (mem)", "warm (disk)", "speedup"],
        cold_rows,
    )
    tune_rows, tune_raw = measure_autotune()
    print_table(
        "Autotune wall time (s): cold vs. warm cache",
        ["workload", "tilings", "cold", "warm cache", "warm speedup"],
        tune_rows,
    )
    workloads = QUICK_WARM_START_WORKLOADS if quick else WARM_START_WORKLOADS
    warm_rows, warm_raw, rounds = measure_warm_start(workloads)
    print_table(
        "Cross-process memo warm-start (cached_optimize, fresh process, ms)",
        ["benchmark", "cold", "warm-started", "warm hits", "speedup"],
        warm_rows,
    )
    raw = {
        "cold_warm": cold_raw,
        "autotune": tune_raw,
        "warm_start": warm_raw,
        "warm_start_rounds": rounds,
    }
    path = save_results("compile_cache", raw, quick=quick)
    print(f"saved {path}")
    return raw


def _check(raw) -> int:
    """The smoke assertions CI runs; returns a shell exit code.  Each
    round's warm-started total is compared with its own cold total, and
    the median round decides: a slow spell of the machine lands on both
    sides of one round, and a single slow child decides nothing."""
    no_warm_hits = [n for n, r in raw["warm_start"].items() if not r["warm_hits"]]
    if no_warm_hits:
        print(f"FAIL: no memo warm hits for {no_warm_hits}")
        return 1
    rounds = raw["warm_start_rounds"]
    total_cold = statistics.median(r["cold"] for r in rounds)
    total_warm = statistics.median(r["warm"] for r in rounds)
    won = sum(r["warm"] < r["cold"] for r in rounds)
    if 2 * won <= len(rounds):
        print(
            f"FAIL: the warm-started total beat the cold total in {won} of "
            f"{len(rounds)} rounds (medians {total_warm:.3f}s vs {total_cold:.3f}s)"
        )
        return 1
    print(
        f"ok: the warm-started total beat the cold total in {won} of "
        f"{len(rounds)} rounds (medians {total_warm:.3f}s vs {total_cold:.3f}s, "
        f"{total_cold / total_warm:.2f}x)"
    )
    return 0


def test_compile_cache(benchmark):
    raw = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    for name, r in raw["cold_warm"].items():
        # Warm hits must beat recompiling — by a lot.
        assert r["speedup_memory"] > 2, (name, r)
        assert r["speedup_disk"] > 2, (name, r)
    assert raw["autotune"]["warm_speedup"] > 1
    for name, r in raw["warm_start"].items():
        assert r["warm_hits"] > 0, (name, r)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: warm-start measurement on three workloads only",
    )
    args = ap.parse_args(argv)
    return _check(run(quick=args.quick))


if __name__ == "__main__":
    sys.exit(main())
