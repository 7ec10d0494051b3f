"""Ablation — overlap tightness (Section VI-A, Camera Pipeline discussion).

The paper credits part of its Camera Pipeline win to *tighter* overlapped
tile shapes: PolyMage applies one group-wide over-approximated halo, while
post-tiling fusion derives each stage's exact upwards-exposed footprint.
This ablation costs our result as it is and under PolyMage's policy
(``polymage_overlap``: the same fusion clusters, group-wide halos) and
reports the recomputation and execution-time gap.
"""

from common import analyze_optimized, cpu_time, image_program, print_table, save_results
from repro import CompileOptions
from repro.baselines import polymage_overlap
from repro.core import optimize

THREADS = 32
PIPELINES = ("camera_pipeline", "harris", "local_laplacian", "unsharp_mask")


def compute_ablation():
    rows = []
    raw = {}
    for name in PIPELINES:
        mod, prog = image_program(name)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=mod.TILE_SIZES))
        exact = analyze_optimized(result)
        loose = analyze_optimized(polymage_overlap(result))
        t_exact = cpu_time(exact, THREADS)
        t_loose = cpu_time(loose, THREADS)
        raw[name] = {
            "recompute_exact_ops": exact.total_recompute(),
            "recompute_box_total_ops": loose.total_recompute(),
            "time_exact_ms": t_exact * 1e3,
            "time_box_total_ms": t_loose * 1e3,
            "slowdown_from_loose_overlap": t_loose / t_exact,
        }
        rows.append(
            [
                name,
                f"{exact.total_recompute():.3g}",
                f"{loose.total_recompute():.3g}",
                f"{t_loose / t_exact:.2f}x",
            ]
        )
    return rows, raw


def test_ablation_overlap(benchmark):
    rows, raw = benchmark.pedantic(compute_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: exact vs. group-wide (PolyMage-style) overlapped tiles",
        ["benchmark", "recompute (exact)", "recompute (box)", "slowdown"],
        rows,
    )
    save_results("ablation_overlap", raw)

    for name, r in raw.items():
        assert (
            r["recompute_box_total_ops"] >= r["recompute_exact_ops"] - 1e-6
        ), name
    # The deep stencil pipelines must show a real penalty.
    assert raw["camera_pipeline"]["slowdown_from_loose_overlap"] >= 1.0


if __name__ == "__main__":
    rows, _ = compute_ablation()
    print_table("Overlap ablation", ["benchmark", "exact", "box", "slowdown"], rows)
