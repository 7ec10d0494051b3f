"""Figure 9 — equake (FEM / 3D SpMV) on CPU, 32 cores.

Speedup over the baseline (naive sequential SpMV pipeline) for PPCG's
minfuse / smartfuse / maxfuse groupings (as published in Section VI-A) and
for our pass.  Shape expectations: minfuse < smartfuse < maxfuse <= ours;
our pass fuses at least the maxfuse grouping (gather + follow-up nests)
without any manual preprocessing.
"""

from common import compare, cpu_time, fmt_speedup, print_table, save_results
from repro.pipelines import equake

THREADS = 32
SIZES = ("test", "train", "ref")
VERSIONS = ("minfuse", "smartfuse", "maxfuse", "ours")


def compute_fig9():
    rows = []
    raw = {}
    for size in SIZES:
        # the heuristics are the groupings of ``equake.PARTITIONS``; only the
        # outermost loop is tilable, so no tiling is applied (paper)
        _, work = compare(equake.build(size), "cpu", None)
        base = cpu_time(work["naive"], THREADS)
        entry = {v: base / cpu_time(work[v], THREADS) for v in VERSIONS}
        raw[size] = entry
        rows.append([size] + [fmt_speedup(entry[v]) for v in VERSIONS])
    return rows, raw


def test_fig9_equake(benchmark):
    rows, raw = benchmark.pedantic(compute_fig9, rounds=1, iterations=1)
    print_table(
        "Fig. 9: equake speedup over baseline (32 cores)",
        ["size", *VERSIONS],
        rows,
    )
    save_results("fig9_equake", raw)

    for size, r in raw.items():
        assert r["minfuse"] <= r["smartfuse"] + 1e-9, size
        assert r["smartfuse"] <= r["maxfuse"] + 1e-9, size
        # ours matches or beats the maxfuse grouping, automatically
        assert r["ours"] >= r["maxfuse"] * 0.99, size


if __name__ == "__main__":
    rows, _ = compute_fig9()
    print_table("Fig. 9", ["size", *VERSIONS], rows)
