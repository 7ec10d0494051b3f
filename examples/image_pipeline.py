"""Optimizing an image-processing pipeline (Harris corner detection).

Shows what the paper's pass does on a realistic 11-stage pipeline:
the fusion clusters it finds, the per-tile footprints of the upwards
exposed data, the scratchpad buffers the fused intermediates occupy, and
the predicted execution times against every strategy the paper compares
(the naive program, Halide, PolyMage and the PPCG/Pluto fusion heuristics)
on the modeled 32-core CPU.

Run:  python examples/image_pipeline.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import CompileOptions
from repro.baselines import strategies
from repro.codegen import execute_naive, make_store, promoted_buffers, run_program
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import harris

SIZE = 256
TILES = (16, 64)


def main():
    prog = harris.build(SIZE)
    print(f"{prog.name}: {len(prog.statements)} stages, image {SIZE}x{SIZE}")

    results = strategies(prog, CompileOptions(target="cpu", tile_sizes=TILES))
    result = results["ours"]
    print(f"\nfusion clusters: {result.fusion_summary()}")
    print(f"compile time: {result.compile_seconds:.2f} s")

    print("\nper-tile scratch buffers of the fused intermediates:")
    for cluster, buffers in promoted_buffers(result).items():
        for b in buffers:
            print(
                f"  {b.tensor:10s} box {b.box_shape} "
                f"({b.box_elems * 8 / 1024:.1f} KiB, "
                f"box/exact = {b.over_approximation:.2f})"
            )

    print("\npredicted CPU time (32 threads):")
    ours = cpu_time(analyze_optimized(result), 32)
    for name, res in results.items():
        if res is None:
            print(f"  {name:10s} failed")
            continue
        t = cpu_time(analyze_optimized(res), 32)
        print(f"  {name:10s} {t * 1e3:8.3f} ms  ({t / ours:.2f}x ours)")

    print("\nverifying the fused schedule on a small image...")
    small = harris.build(32)
    ref = make_store(small)
    execute_naive(small, ref)
    res_small = optimize(small, CompileOptions(target="cpu", tile_sizes=(8, 8)))
    store, _ = run_program(small, res_small.tree)
    out = small.liveout[0]
    assert np.allclose(store[out], ref[out])
    print("bit-identical to the naive execution.")


if __name__ == "__main__":
    main()
