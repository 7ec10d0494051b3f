"""Microbenchmark of the presburger fast-path engine (PR: interned
linear algebra + operation memoization).

Times the hot ``BasicMap``/``BasicSet`` operations of the footprint
computation — ``apply_range``, ``intersect``, ``project_out`` and
``is_empty`` — on stencil-shaped relations (tile-containment maps composed
with halo accesses, the exact shape relations (2)-(4) of the paper
produce), in two modes:

* **cold** — every memo table and the LinExpr intern table are cleared
  before each repetition, so every operation runs the full algorithm;
* **memoized** — tables are cleared once, then repetitions replay the
  identical operations and hit the memo layer;
* **warm-started** — tables are cleared, then reloaded from a pickled
  :func:`repro.presburger.memo.snapshot` (the disk-spill round-trip a
  fresh process performs), and the repetitions replay against the warm
  entries.  The snapshot capture / pickle / reload costs are reported so
  the spill overhead can be weighed against the compile time it saves.

A second part sweeps the buffer-promotion pass over every target
(cpu/gpu/npu) and a grid of tile sizes on real pipelines, reporting the
aggregate memo hit rate each target achieves — the promotion pass leans on
the union-level relation memos (``umap_fix``, ``umap_box_projection``),
so its hit rate is the end-to-end health check of the memo layer.

Saves raw numbers to ``benchmarks/results/presburger_ops.json`` (``--quick``:
``benchmarks/results/quick/``) and exits non-zero if the memoized mode is
not faster than the cold mode (the CI smoke job runs ``--quick``).
"""

import argparse
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import print_table, save_perf_snapshot, save_results
from repro import CompileOptions
from repro.presburger import BasicMap, Constraint, LinExpr, MapSpace, memo

V = LinExpr.var


def build_tile_map(h, w, tile):
    """{ T[t0, t1] -> S[i, j] : tile containment and domain bounds }."""
    space = MapSpace("T", ("t0", "t1"), "S", ("i", "j"), ())
    cons = []
    for t, d, n in (("t0", "i", h), ("t1", "j", w)):
        cons.append(Constraint.le(V(t), V(d)))
        cons.append(Constraint.lt(V(d), V(t) + tile))
        cons.append(Constraint.ge(V(d)))
        cons.append(Constraint.lt(V(d), n))
    return BasicMap(space, cons)


def build_stencil_access(h, w, di, dj):
    """{ S[i, j] -> A[i + di, j + dj] : in-bounds }."""
    dom_cons = []
    for d, n in (("i", h), ("j", w)):
        dom_cons.append(Constraint.ge(V(d)))
        dom_cons.append(Constraint.lt(V(d), n))
    space = MapSpace("S", ("i", "j"), "A", ("a0", "a1"), ())
    cons = dom_cons + [
        Constraint.eq(V("a0") - V("i") - di),
        Constraint.eq(V("a1") - V("j") - dj),
    ]
    return BasicMap(space, cons)


def build_workload(size):
    """Stencil-shaped (tile map, access map) pairs as the footprint loop
    sees them: one tile relation composed with every halo tap."""
    tile_maps = [build_tile_map(size, size, t) for t in (16, 32, 64)]
    taps = [(di, dj) for di in (-1, 0, 1, 2) for dj in (-1, 0, 1, 2)]
    accesses = [build_stencil_access(size, size, di, dj) for di, dj in taps]
    return [(tm, am) for tm in tile_maps for am in accesses]


def run_once(pairs):
    """One repetition of the footprint-shaped operation mix."""
    t_apply = t_empty = t_intersect = t_project = 0.0
    footprints = []
    t0 = time.perf_counter()
    for tm, am in pairs:
        footprints.append(tm.apply_range(am))
    t_apply = time.perf_counter() - t0

    t0 = time.perf_counter()
    for fp in footprints:
        fp.is_empty()
    t_empty = time.perf_counter() - t0

    t0 = time.perf_counter()
    for a, b in zip(footprints, footprints[1:]):
        a.intersect(b)
    t_intersect = time.perf_counter() - t0

    t0 = time.perf_counter()
    for fp in footprints[:: max(1, len(footprints) // 8)]:
        fp.wrap().project_out(fp.space.in_dims)
    t_project = time.perf_counter() - t0
    return {
        "apply_range": t_apply,
        "is_empty": t_empty,
        "intersect": t_intersect,
        "project_out": t_project,
    }


def accumulate(total, part):
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v
    return total


def measure_spill(pairs, reps):
    """Snapshot / pickle / reload timing plus a warm-started replay.

    Clearing every table and the intern layer before :func:`memo.load_snapshot`
    mimics what a fresh process sees; the pickle round-trip rebuilds each
    entry the way ``CompileCache.get_memos`` would.
    """
    memo.clear_all()
    run_once(pairs)  # populate the spillable tables

    t0 = time.perf_counter()
    snap = memo.snapshot()
    snapshot_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    blob = pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
    pickle_s = time.perf_counter() - t0

    memo.clear_all()
    t0 = time.perf_counter()
    loaded = memo.load_snapshot(pickle.loads(blob))
    load_s = time.perf_counter() - t0

    warm_started = {}
    for _ in range(reps):
        accumulate(warm_started, run_once(pairs))
    warm_hits = sum(v["warm_hits"] for v in memo.stats().values())

    raw = {
        "entries": sum(len(v) for v in snap.values()),
        "entries_loaded": loaded,
        "bytes": len(blob),
        "snapshot_seconds": snapshot_s,
        "pickle_seconds": pickle_s,
        "load_seconds": load_s,
        "warm_started_seconds": warm_started,
        "warm_hits": warm_hits,
    }
    return raw


def run_bench(reps, size):
    pairs = build_workload(size)

    cold = {}
    for _ in range(reps):
        memo.clear_all()
        accumulate(cold, run_once(pairs))

    memo.clear_all()
    run_once(pairs)  # populate the tables once
    warm = {}
    for _ in range(reps):
        accumulate(warm, run_once(pairs))

    spill = measure_spill(pairs, reps)

    ops = sorted(cold)
    rows = []
    for op in ops:
        speedup = cold[op] / warm[op] if warm[op] > 0 else float("inf")
        ws = spill["warm_started_seconds"].get(op, 0.0)
        rows.append(
            [op, f"{cold[op]:.4f}", f"{warm[op]:.4f}", f"{ws:.4f}",
             f"{speedup:.1f}x"]
        )
    raw = {
        "reps": reps,
        "size": size,
        "pairs": len(pairs),
        "cold_seconds": cold,
        "memoized_seconds": warm,
        "spill": spill,
        "memo_stats": memo.stats(),
    }
    return rows, raw


PROMOTION_TARGETS = ("cpu", "gpu", "npu")
PROMOTION_WORKLOADS = ("unsharp_mask", "harris")
PROMOTION_TILE_SIZES = (8, 16, 32)
PROMOTION_SIZE = 256


def run_promotion_sweep(
    workloads=PROMOTION_WORKLOADS, tile_sizes=PROMOTION_TILE_SIZES
):
    """The promotion pass swept across targets and tile sizes, cold per
    target, reporting each target's aggregate memo hit rate."""
    from repro.api import get_workload
    from repro.codegen.promotion import promoted_buffers
    from repro.core import optimize

    rows, raw = [], {}
    for target in PROMOTION_TARGETS:
        memo.clear_all()
        # Hit/miss counters are process-cumulative (clearing drops entries,
        # not counts), so attribute per-target deltas against a baseline.
        base = {
            name: (v["hits"], v["misses"]) for name, v in memo.stats().items()
        }
        n_buffers = 0
        t0 = time.perf_counter()
        for name in workloads:
            prog = get_workload(name, PROMOTION_SIZE)
            for s in tile_sizes:
                res = optimize(prog, CompileOptions(target=target, tile_sizes=(s, s)))
                n_buffers += sum(
                    len(bufs) for bufs in promoted_buffers(res).values()
                )
        elapsed = time.perf_counter() - t0
        tables = {}
        for name, v in memo.stats().items():
            bh, bm = base.get(name, (0, 0))
            dh, dm = v["hits"] - bh, v["misses"] - bm
            if dh or dm:
                tables[name] = {"hits": dh, "misses": dm}
        hits = sum(t["hits"] for t in tables.values())
        misses = sum(t["misses"] for t in tables.values())
        rate = hits / max(1, hits + misses)
        raw[target] = {
            "seconds": elapsed,
            "buffers": n_buffers,
            "memo_hits": hits,
            "memo_misses": misses,
            "hit_rate": rate,
            "tables": tables,
        }
        rows.append(
            [
                target,
                str(n_buffers),
                f"{elapsed:.2f}",
                str(hits),
                str(misses),
                f"{100 * rate:.1f}%",
            ]
        )
    memo.clear_all()
    return rows, raw


def perf_gauges(raw):
    """Flatten the raw results into per-rep gauges for ``repro stats diff``.

    Per-rep normalisation keeps snapshots comparable across ``--reps``
    choices; a diff still assumes matching ``--size``.
    """
    reps = max(1, raw["reps"])
    gauges = {}
    for op, s in raw["cold_seconds"].items():
        gauges[f"presburger.cold.{op}"] = s / reps
    for op, s in raw["memoized_seconds"].items():
        gauges[f"presburger.memoized.{op}"] = s / reps
    spill = raw["spill"]
    gauges["presburger.spill.snapshot"] = spill["snapshot_seconds"]
    gauges["presburger.spill.load"] = spill["load_seconds"]
    for target, r in raw.get("promotion_sweep", {}).items():
        gauges[f"promotion.{target}.seconds"] = r["seconds"]
    return gauges


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer repetitions on a smaller problem",
    )
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--size", type=int, default=None)
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.quick else 10)
    size = args.size if args.size is not None else (256 if args.quick else 1024)

    rows, raw = run_bench(reps, size)
    print_table(
        f"Presburger ops, cold vs memoized ({reps} reps, size {size})",
        ["operation", "cold (s)", "memoized (s)", "warm-started (s)", "speedup"],
        rows,
    )
    spill = raw["spill"]
    print(
        f"spill round-trip: {spill['entries']} entries, "
        f"{spill['bytes'] / 1024:.1f} KiB; snapshot {spill['snapshot_seconds'] * 1e3:.2f} ms, "
        f"pickle {spill['pickle_seconds'] * 1e3:.2f} ms, "
        f"reload {spill['load_seconds'] * 1e3:.2f} ms, "
        f"{spill['warm_hits']} warm hits on replay"
    )

    promo_workloads = (
        PROMOTION_WORKLOADS[:1] if args.quick else PROMOTION_WORKLOADS
    )
    promo_sizes = (
        PROMOTION_TILE_SIZES[:2] if args.quick else PROMOTION_TILE_SIZES
    )
    promo_rows, promo_raw = run_promotion_sweep(promo_workloads, promo_sizes)
    print_table(
        "Promotion pass across targets (cold per target)",
        ["target", "buffers", "seconds", "memo hits", "misses", "hit rate"],
        promo_rows,
    )
    raw["promotion_sweep"] = promo_raw
    save_results("presburger_ops", raw, quick=args.quick)
    path = save_perf_snapshot(
        "perf_current",
        perf_gauges(raw),
        benchmark="presburger_ops",
        reps=reps,
        size=size,
    )
    print(f"perf snapshot: {path}")

    total_cold = sum(raw["cold_seconds"].values())
    total_warm = sum(raw["memoized_seconds"].values())
    if total_warm >= total_cold:
        print(
            f"FAIL: memoized total {total_warm:.4f}s is not faster than "
            f"cold total {total_cold:.4f}s"
        )
        return 1
    print(
        f"ok: memoized total {total_warm:.4f}s vs cold {total_cold:.4f}s "
        f"({total_cold / total_warm:.1f}x)"
    )
    return 0


def test_presburger_ops(benchmark):
    rows, raw = benchmark.pedantic(
        lambda: run_bench(3, 256), rounds=1, iterations=1
    )
    print_table(
        "Presburger ops, cold vs memoized",
        ["operation", "cold (s)", "memoized (s)", "warm-started (s)", "speedup"],
        rows,
    )
    _, promo_raw = run_promotion_sweep(
        PROMOTION_WORKLOADS[:1], PROMOTION_TILE_SIZES[:2]
    )
    raw["promotion_sweep"] = promo_raw
    save_results("presburger_ops", raw)
    assert sum(raw["memoized_seconds"].values()) < sum(
        raw["cold_seconds"].values()
    )
    assert raw["spill"]["entries_loaded"] > 0
    assert raw["spill"]["warm_hits"] > 0
    for target, r in promo_raw.items():
        assert r["hit_rate"] > 0, target


if __name__ == "__main__":
    sys.exit(main())
