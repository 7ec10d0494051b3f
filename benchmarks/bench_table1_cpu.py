"""Table I — PolyMage benchmarks on CPU.

Columns reproduced: stage count, tile size, execution time of the naive
sequential code (1 core), PolyMage (32 cores), Halide's manual schedule
(32 cores), our work (32 cores), and the compilation time of our pass and
of the start-up heuristics.  Shape expectations: ours >= PolyMage and
ours >= Halide on average (paper: +20% / +33%), Harris ties PolyMage and
beats Halide ~2x.
"""

import pytest

from common import (
    BENCH_SIZE,
    IMAGE_PIPELINES,
    cold_compile_seconds,
    compare,
    cpu_time,
    fmt_ms,
    image_program,
    print_table,
    save_results,
)

THREADS = 32


def compute_table1():
    rows = []
    raw = {}
    for name in sorted(IMAGE_PIPELINES):
        mod, prog = image_program(name)
        ts = mod.TILE_SIZES
        results, work = compare(prog, "cpu", ts)

        t_naive = cpu_time(work["naive"], 1)
        t_poly, t_halide, t_ours = (
            cpu_time(work[v], THREADS) for v in ("polymage", "halide", "ours")
        )
        # measured: each strategy's own compile (a heuristic's scheduler)
        t_min, t_smart, t_max, compile_s = (
            cold_compile_seconds(prog, v, ts)
            for v in ("minfuse", "smartfuse", "maxfuse", "ours")
        )

        rows.append(
            [
                name,
                mod.STAGE_COUNT,
                f"{ts[0]}x{ts[1]}",
                fmt_ms(t_naive),
                fmt_ms(t_poly),
                fmt_ms(t_halide),
                fmt_ms(t_ours),
                f"{t_min:.2f}",
                f"{t_smart:.2f}",
                f"{t_max:.2f}",
                f"{compile_s:.2f}",
            ]
        )
        raw[name] = {
            "naive_1c_ms": t_naive * 1e3,
            "polymage_32c_ms": t_poly * 1e3,
            "halide_32c_ms": t_halide * 1e3,
            "ours_32c_ms": t_ours * 1e3,
            "compile_minfuse_s": t_min,
            "compile_smartfuse_s": t_smart,
            "compile_maxfuse_s": t_max,
            "compile_ours_s": compile_s,
            "speedup_vs_polymage": t_poly / t_ours,
            "speedup_vs_halide": t_halide / t_ours,
        }
    return rows, raw


def test_table1_cpu(benchmark):
    rows, raw = benchmark.pedantic(compute_table1, rounds=1, iterations=1)
    print_table(
        f"Table I: PolyMage benchmarks on CPU ({BENCH_SIZE}x{BENCH_SIZE}, modeled 2x16-core Xeon)",
        [
            "benchmark", "stages", "tile",
            "naive(1c) ms", "PolyMage(32c) ms", "Halide(32c) ms", "ours(32c) ms",
            "minfuse s", "smartfuse s", "maxfuse s", "ours s",
        ],
        rows,
    )
    save_results("table1_cpu", raw)

    # Shape assertions from the paper.
    geo_poly = 1.0
    geo_halide = 1.0
    for name, r in raw.items():
        assert r["ours_32c_ms"] < r["naive_1c_ms"], name
        geo_poly *= r["speedup_vs_polymage"]
        geo_halide *= r["speedup_vs_halide"]
    n = len(raw)
    assert geo_poly ** (1 / n) >= 1.0   # >= PolyMage on average
    assert geo_halide ** (1 / n) > 1.05  # clearly beats Halide on average
    # Harris: same inlining as PolyMage (near-tie), ~2x over Halide's
    # manual schedule which misses the inlining
    assert raw["harris"]["speedup_vs_polymage"] == pytest.approx(1.0, rel=0.25)
    assert raw["harris"]["speedup_vs_halide"] > 1.4


if __name__ == "__main__":
    rows, raw = compute_table1()
    print_table("Table I (CPU)", ["benchmark", "stages", "tile", "naive", "PolyMage", "Halide", "ours", "minfuse", "smartfuse", "maxfuse", "ours_s"], rows)
