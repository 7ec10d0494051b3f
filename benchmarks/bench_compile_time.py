"""Compilation-time comparison (Table I's last four columns, Section VI-D).

Measured wall-clock of this implementation's start-up heuristics and of
the full post-tiling-fusion pass, per image pipeline.  The paper's
headline ("maxfuse cannot finish within one day") stems from Pluto's
ILP-based scheduling, which this reproduction replaces with polynomial
algorithms — so the absolute blowups do not recur; what must reproduce is
that *our pass stays fast on every pipeline* (paper: always under 8
minutes) and scales with pipeline depth, with the footprint computation
(not the heuristics) dominating on complex access patterns.
"""

from common import (
    IMAGE_PIPELINES,
    cold_compile_seconds,
    image_program,
    print_table,
    save_results,
)

VERSIONS = ("minfuse", "smartfuse", "maxfuse", "ours")


def compute_compile_times():
    rows = []
    raw = {}
    for name in sorted(IMAGE_PIPELINES):
        mod, prog = image_program(name)
        times = {v: cold_compile_seconds(prog, v, mod.TILE_SIZES) for v in VERSIONS}
        raw[name] = times
        rows.append(
            [name, len(prog.statements)]
            + [f"{times[v]:.3f}" for v in VERSIONS]
        )
    return rows, raw


def test_compile_time(benchmark):
    rows, raw = benchmark.pedantic(compute_compile_times, rounds=1, iterations=1)
    print_table(
        "Compilation time (s) per pipeline",
        ["benchmark", "stages", *VERSIONS],
        rows,
    )
    save_results("compile_time", raw)

    # The paper's bound: our pass terminates quickly on every pipeline.
    for name, times in raw.items():
        assert times["ours"] < 480, name  # well under the paper's 8 minutes
    # Depth scales cost: the 99-stage pipeline is the most expensive.
    assert raw["local_laplacian"]["ours"] == max(r["ours"] for r in raw.values())


if __name__ == "__main__":
    rows, _ = compute_compile_times()
    print_table("Compile time", ["benchmark", "stages", *VERSIONS], rows)
