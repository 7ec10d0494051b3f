"""Tile-size auto-tuning bench (the provenance of Table I's tile sizes).

Two parts:

* **Parametric sweep** — the headline of the parametric-footprint engine:
  one symbolic footprint per group serves every tile-size candidate, so an
  autotune sweep re-specializes instead of recompiling.  The bench sweeps
  >= 8 candidates per workload with the engine off (``parametric_binding``
  patched to decline: the per-candidate seed path) and on, asserts the chosen sizes,
  evaluation landscape and generated C are byte-identical, and reports the
  wall-clock speedup (>= 1.5x expected on the stencil pipelines).

* **Table I sanity** — the tuned size is the argmin and degenerate tilings
  lose to it; Table I's published sizes stay near-competitive.

* **Pruned sweep** (``--pruned``) — collect a dataset from the exhaustive
  sweeps, fit the ranking model, rerun with ``search="pruned"`` and assert
  the learned cut reaches the identical ``best_sizes`` with >= 5x fewer
  exact cost-model evaluations.

``--quick`` runs the parity assertions only (2 workloads, no timing
thresholds) — that is what CI's autotune-parity and learned-autotune
jobs execute.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from unittest import mock

from common import image_program, print_table, save_results
from repro import CompileOptions
from repro.codegen import print_tree
from repro.core import optimize
from repro.presburger import memo
from repro.scheduler import autotune_tile_sizes

PIPELINES = ("unsharp_mask", "harris")
CANDIDATES = (8, 32, 128, 512)

#: Parametric-sweep settings: 5 candidates x 2 dims = 25 combos (>= 8).
SWEEP_WORKLOADS = (
    "unsharp_mask", "harris", "2mm", "3mm",
    "camera_pipeline", "bilateral_grid",
)
SWEEP_CANDIDATES = (4, 8, 16, 32, 128)
SWEEP_SIZE = 256
SWEEP_SPEEDUP = 1.5
SWEEP_MIN_WORKLOADS = 3


def _sweep_once(prog, parametric: bool):
    """One cold autotune sweep plus the best candidate's generated C.

    ``parametric=False`` is the seed oracle: ``parametric_binding`` declines
    (as it does for symbolic sizes), so every candidate takes the direct
    per-size footprint path."""
    memo.clear_all()
    with contextlib.ExitStack() as stack:
        if not parametric:
            for mod in ("footprint", "tile_shapes"):
                stack.enter_context(mock.patch(
                    f"repro.core.{mod}.parametric_binding", return_value=None
                ))
        t0 = time.perf_counter()
        result = autotune_tile_sizes(prog, options=CompileOptions(target="cpu", mode="serial"), threads=32, candidates=SWEEP_CANDIDATES, dims=2)
        elapsed = time.perf_counter() - t0
        best = optimize(prog, CompileOptions(target="cpu", tile_sizes=result.best_sizes))
    code = print_tree(best.tree, prog, style="openmp")
    return result, code, elapsed


def compute_parametric_sweep(workloads=SWEEP_WORKLOADS, reps: int = 3):
    from repro.api import get_workload

    rows, raw = [], {}
    try:
        for name in workloads:
            prog = get_workload(name, SWEEP_SIZE)
            seed_t = par_t = float("inf")
            for _ in range(reps):
                seed, seed_code, t = _sweep_once(prog, parametric=False)
                seed_t = min(seed_t, t)
                par, par_code, t = _sweep_once(prog, parametric=True)
                par_t = min(par_t, t)
            assert par.best_sizes == seed.best_sizes, (
                f"{name}: parametric best {par.best_sizes} != "
                f"seed best {seed.best_sizes}"
            )
            assert par.evaluations == seed.evaluations, (
                f"{name}: evaluation landscapes diverge"
            )
            assert par_code == seed_code, (
                f"{name}: generated C diverges for {par.best_sizes}"
            )
            speedup = seed_t / par_t
            raw[name] = {
                "candidates": len(seed.evaluations) + len(seed.failures),
                "best_sizes": list(seed.best_sizes),
                "seed_seconds": seed_t,
                "parametric_seconds": par_t,
                "speedup": speedup,
                "parity": True,
            }
            rows.append(
                [
                    name,
                    str(raw[name]["candidates"]),
                    "x".join(map(str, seed.best_sizes)),
                    f"{seed_t:.2f}",
                    f"{par_t:.2f}",
                    f"{speedup:.2f}x",
                ]
            )
    finally:
        memo.clear_all()
    return rows, raw


#: Required evaluation-count reduction of the pruned search.
PRUNE_FACTOR = 5.0


def compute_pruned_sweep(workloads=SWEEP_WORKLOADS):
    """Collect -> fit -> pruned rerun; asserts parity and >= 5x reduction."""
    import tempfile

    from repro.api import get_workload
    from repro.data import Dataset
    from repro.learn import fit_records, save_model

    rows, raw = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Dataset(os.path.join(tmp, "autotune.jsonl"))
        programs, exhaustive = {}, {}
        for name in workloads:
            prog = get_workload(name, SWEEP_SIZE)
            programs[name] = prog
            exhaustive[name] = autotune_tile_sizes(
                prog, threads=32, candidates=SWEEP_CANDIDATES, dims=2,
                collect=dataset,
            )
        model = fit_records(dataset.records())
        model_path = save_model(model, os.path.join(tmp, "ranker.pkl"))
        for name in workloads:
            ex = exhaustive[name]
            pr = autotune_tile_sizes(
                programs[name], threads=32, candidates=SWEEP_CANDIDATES,
                dims=2, search="pruned", model=model_path, collect=False,
            )
            assert pr.search == "pruned", (
                f"{name}: pruned search fell back: {pr.fallback_reason}"
            )
            assert pr.best_sizes == ex.best_sizes, (
                f"{name}: pruned best {pr.best_sizes} != "
                f"exhaustive best {ex.best_sizes}"
            )
            reduction = ex.exact_evaluations / max(pr.exact_evaluations, 1)
            assert reduction >= PRUNE_FACTOR, (
                f"{name}: only {reduction:.1f}x fewer exact evaluations "
                f"({ex.exact_evaluations} -> {pr.exact_evaluations}), "
                f"need >= {PRUNE_FACTOR}x"
            )
            raw[name] = {
                "best_sizes": list(ex.best_sizes),
                "exhaustive_evals": ex.exact_evaluations,
                "pruned_evals": pr.exact_evaluations,
                "pruned_out": pr.pruned_out,
                "reduction": reduction,
                "parity": True,
            }
            rows.append(
                [
                    name,
                    str(ex.exact_evaluations),
                    str(pr.exact_evaluations),
                    "x".join(map(str, pr.best_sizes)),
                    f"{reduction:.1f}x",
                ]
            )
    return rows, raw


def compute_autotune():
    rows = []
    raw = {}
    for name in PIPELINES:
        mod, prog = image_program(name)
        result = autotune_tile_sizes(prog, options=CompileOptions(target="cpu", mode="serial"), threads=32, candidates=CANDIDATES)
        paper_sizes = tuple(mod.TILE_SIZES)
        paper_time = result.evaluations.get(paper_sizes)
        raw[name] = {
            "best_sizes": list(result.best_sizes),
            "best_ms": result.best_time * 1e3,
            "paper_sizes": list(paper_sizes),
            "paper_ms": None if paper_time is None else paper_time * 1e3,
            "evaluations": {
                "x".join(map(str, k)): v * 1e3
                for k, v in result.evaluations.items()
            },
        }
        rows.append(
            [
                name,
                "x".join(map(str, result.best_sizes)),
                f"{result.best_time * 1e3:.3f}",
                "x".join(map(str, paper_sizes)),
                "-" if paper_time is None else f"{paper_time * 1e3:.3f}",
            ]
        )
    return rows, raw


def _check_sweep_speedups(raw) -> int:
    fast = [n for n, r in raw.items() if r["speedup"] >= SWEEP_SPEEDUP]
    print(
        f"\n{len(fast)}/{len(raw)} workloads at >= {SWEEP_SPEEDUP}x "
        f"(need {SWEEP_MIN_WORKLOADS}): {', '.join(fast) or 'none'}"
    )
    return 0 if len(fast) >= SWEEP_MIN_WORKLOADS else 1


def test_autotune(benchmark):
    rows, raw = benchmark.pedantic(compute_autotune, rounds=1, iterations=1)
    print_table(
        "Tile-size auto-tuning vs Table I sizes (CPU model, 32 threads)",
        ["benchmark", "tuned", "tuned ms", "Table I", "Table I ms"],
        rows,
    )
    sweep_rows, sweep_raw = compute_parametric_sweep(
        workloads=("unsharp_mask", "harris"), reps=1
    )
    print_table(
        "Parametric-footprint sweep parity",
        ["benchmark", "combos", "best", "seed s", "parametric s", "speedup"],
        sweep_rows,
    )
    save_results("autotune", {**raw, "parametric_sweep": sweep_raw})

    for name, r in raw.items():
        evals = r["evaluations"]
        best = r["best_ms"]
        # the tuned size is the argmin by construction; sanity: the spread
        # between best and worst tiling is real (tile sizes matter)
        worst = max(evals.values())
        assert worst > best * 1.2, name
        # Table I's size, when in the candidate grid, is near-competitive
        if r["paper_ms"] is not None:
            assert r["paper_ms"] <= worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="parity assertions only (2 workloads, no timing threshold)",
    )
    ap.add_argument(
        "--pruned", action="store_true",
        help="learned-pruning sweep: collect, fit, rerun pruned and assert "
        "best-sizes parity with >= 5x fewer exact evaluations",
    )
    args = ap.parse_args(argv)

    if args.pruned:
        workloads = ("unsharp_mask", "harris") if args.quick else SWEEP_WORKLOADS
        rows, raw = compute_pruned_sweep(workloads=workloads)
        print_table(
            "Learned pruning: exhaustive vs pruned exact evaluations",
            ["benchmark", "exhaustive", "pruned", "best", "reduction"],
            rows,
        )
        save_results("autotune_pruned", raw)
        print(
            f"pruned parity: OK (best sizes identical, "
            f">= {PRUNE_FACTOR:.0f}x fewer exact evaluations)"
        )
        return 0

    if args.quick:
        rows, raw = compute_parametric_sweep(
            workloads=("unsharp_mask", "harris"), reps=1
        )
        print_table(
            "Parametric-footprint sweep parity (quick)",
            ["benchmark", "combos", "best", "seed s", "parametric s", "speedup"],
            rows,
        )
        print("parity: OK (sizes, landscape and generated C byte-identical)")
        return 0

    table_rows, table_raw = compute_autotune()
    print_table(
        "Auto-tuning", ["benchmark", "tuned", "ms", "paper", "ms"], table_rows
    )
    sweep_rows, sweep_raw = compute_parametric_sweep()
    print_table(
        "Parametric-footprint sweep: seed per-candidate vs specialized",
        ["benchmark", "combos", "best", "seed s", "parametric s", "speedup"],
        sweep_rows,
    )
    save_results("autotune", {**table_raw, "parametric_sweep": sweep_raw})
    return _check_sweep_speedups(sweep_raw)


if __name__ == "__main__":
    sys.exit(main())
