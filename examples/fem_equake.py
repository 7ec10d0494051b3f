"""Fusion without tiling: the equake finite-element kernel (Section VI-A).

equake's pipeline — banded SpMV (init / reduce / gather) followed by
elementary vector updates — is only tilable along its outermost loop, and
the paper applies *no* tiling at all: Algorithm 1 then degenerates into a
pure post-tiling *fusion* pass (unit tiles over the protected parallel
dimension), automatically finding the grouping PPCG's maxfuse needed a
manual preprocessing step for.

Run:  python examples/fem_equake.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import CompileOptions
from repro.baselines import strategies
from repro.codegen import execute_naive, make_store, run_program
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import equake


def main():
    prog = equake.build(n=256)
    print(f"{prog.name}: {len(prog.statements)} statements, banded SpMV width {equake.BAND}")

    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=None))
    print(f"\nfusion found by the pass: {result.fusion_summary()}")
    print("(matches/extends the maxfuse grouping the paper reports, with no")
    print(" manual while-loop permutation required)")

    print("\npredicted times at 32 threads (modeled Xeon), n = 40000:")
    # the PPCG heuristics are the groupings the paper reports (PARTITIONS)
    results = strategies(equake.build("train"), CompileOptions(tile_sizes=None))
    t_ours = cpu_time(analyze_optimized(results["ours"]), 32)
    for name, res in results.items():
        if res is None:
            print(f"  {name:10s} failed")
            continue
        t = cpu_time(analyze_optimized(res), 32)
        print(f"  {name:10s} {t * 1e3:8.3f} ms  ({t / t_ours:.2f}x ours)")

    print("\nverifying fused execution...")
    ref = make_store(prog)
    execute_naive(prog, ref)
    store, _ = run_program(prog, result.tree)
    assert np.allclose(store["u"], ref["u"])
    print("live-out mesh state matches the naive execution.")


if __name__ == "__main__":
    main()
