"""Cache-fabric benchmark: shared remote tier, write-behind hot path.

The fabric's claim is sccache-shaped: once *any* node has compiled a
fingerprint, every other node serves it from the shared remote tier at
cache-fetch latency instead of recompiling — and the remote tier never
taxes the compile hot path, because writes are published behind a
bounded queue and a dead remote degrades to plain local caching.

Three measurements:

* **fresh-process tiers** — for each workload of the paper's sweep, a
  cold compile (fresh local dir, empty remote), then the same compile in
  a new process with a *different* fresh local dir sharing the now-warm
  remote tier (remote-warm), then once more in that process's dir
  (local-warm after backfill).  Schedule trees must hash identically
  across all three; the remote-warm aggregate must be >= 5x faster than
  cold.
* **two daemons** — compile server A (its own local tier + the shared
  remote) compiles the sweep; server B, with a cold local tier on the
  same remote, must answer every workload ``from_cache`` with zero real
  compiles and a positive remote-hit count.
* **put latency** — median ``CompileCache.put`` with a local-only store
  vs. the layered fabric (remote up, and remote dead): write-behind must
  keep the layered put in the same order of magnitude as the local one,
  and a dead remote must not fail or slow a single request.

Results land in ``benchmarks/results/cache_fabric.json``.
"""

import argparse
import json
import os
import secrets
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_compile_cache import QUICK_WARM_START_WORKLOADS, WARM_START_WORKLOADS
from common import print_table, save_results
from repro.service import CompileCache, StoreServer, resolve_cache

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: Subprocess payload: one serial ``compile_batch`` against an arbitrary
#: cache spec, in a genuinely fresh process (fresh memo tables, fresh
#: memory tier — only the spec'd stores carry state in).
_CHILD = """
import hashlib, json, sys, time
from repro.api import CompileOptions, default_tile_sizes, get_workload
from repro.codegen import print_tree
from repro.service import CompileRequest, compile_batch, resolve_cache

name, size, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
prog = get_workload(name, size)
cache = resolve_cache(spec)
request = CompileRequest(prog, "cpu", default_tile_sizes(name))
t0 = time.perf_counter()
(outcome,) = compile_batch([request], options=CompileOptions(mode="serial", cache=cache))
elapsed = time.perf_counter() - t0
assert outcome.ok, outcome.error
cache.flush(30.0)
tree = print_tree(outcome.result.tree, prog)
json.dump({
    "seconds": elapsed,
    "from_cache": outcome.from_cache,
    "remote_hits": cache.counters().get("tier.remote.hits", 0),
    "disk_hits": cache.stats.disk_hits,
    "tree_sha": hashlib.sha256(tree.encode()).hexdigest(),
}, sys.stdout)
cache.close()
"""


def _compile_in_subprocess(name: str, size: int, spec: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, name, str(size), spec],
        capture_output=True,
        env=env,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child failed\n{proc.stderr.decode()}")
    return json.loads(proc.stdout)


def measure_tiers(workloads):
    """Cold vs. remote-warm vs. local-warm, each in a fresh process."""
    rows, raw = [], {}
    for name, size in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            with StoreServer(os.path.join(tmp, "remote")) as srv:
                spec_a = f"tiered:{os.path.join(tmp, 'node_a')}|{srv.url}"
                spec_b = f"tiered:{os.path.join(tmp, 'node_b')}|{srv.url}"
                cold = _compile_in_subprocess(name, size, spec_a)
                remote_warm = _compile_in_subprocess(name, size, spec_b)
                local_warm = _compile_in_subprocess(name, size, spec_b)
        assert not cold["from_cache"], (name, cold)
        assert remote_warm["from_cache"], (name, remote_warm)
        assert remote_warm["remote_hits"] >= 1, (name, remote_warm)
        assert local_warm["from_cache"], (name, local_warm)
        assert local_warm["remote_hits"] == 0, (name, local_warm)  # backfilled
        # bit-identical results regardless of which tier served them
        assert cold["tree_sha"] == remote_warm["tree_sha"] == local_warm["tree_sha"], name
        raw[name] = {
            "cold_seconds": cold["seconds"],
            "remote_warm_seconds": remote_warm["seconds"],
            "local_warm_seconds": local_warm["seconds"],
            "speedup_remote": cold["seconds"] / remote_warm["seconds"]
            if remote_warm["seconds"] else float("inf"),
            "tree_sha": cold["tree_sha"],
        }
        rows.append(
            [
                name,
                f"{cold['seconds'] * 1e3:.1f}",
                f"{remote_warm['seconds'] * 1e3:.1f}",
                f"{local_warm['seconds'] * 1e3:.1f}",
                f"{raw[name]['speedup_remote']:.1f}x",
            ]
        )
    return rows, raw


def measure_two_daemons(workloads):
    """Server A compiles the sweep; server B answers it all from the
    shared remote tier without compiling anything."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    sweep = [(n, min(s, 128)) for n, s in workloads]
    with tempfile.TemporaryDirectory() as tmp:
        with StoreServer(os.path.join(tmp, "remote")) as srv:
            cfg_a = ServeConfig(
                socket_path=os.path.join(tmp, "a.sock"),
                cache=f"tiered:{os.path.join(tmp, 'node_a')}|{srv.url}",
            )
            t0 = time.perf_counter()
            with ServerThread(cfg_a) as st_a:
                with ServeClient(socket_path=cfg_a.socket_path) as client:
                    for name, size in sweep:
                        out = client.compile(name, size=size)
                        assert out.get("error") is None, (name, out)
                # leaving the block drains A, flushing the write-behind
                # queue to the remote tier
            a_seconds = time.perf_counter() - t0
            a_compiles = st_a.server.registry.counters.get("serve.compiles", 0)

            cfg_b = ServeConfig(
                socket_path=os.path.join(tmp, "b.sock"),
                cache=f"tiered:{os.path.join(tmp, 'node_b')}|{srv.url}",
            )
            t0 = time.perf_counter()
            with ServerThread(cfg_b) as st_b:
                with ServeClient(socket_path=cfg_b.socket_path) as client:
                    for name, size in sweep:
                        out = client.compile(name, size=size)
                        assert out["from_cache"], (name, out)
                b_remote_hits = st_b.server.cache.counters()["tier.remote.hits"]
            b_seconds = time.perf_counter() - t0
            b_compiles = st_b.server.registry.counters.get("serve.compiles", 0)

    assert b_compiles == 0, f"daemon B compiled {b_compiles} workloads"
    assert b_remote_hits >= len(sweep)
    raw = {
        "workloads": len(sweep),
        "daemon_a_seconds": a_seconds,
        "daemon_a_compiles": a_compiles,
        "daemon_b_seconds": b_seconds,
        "daemon_b_compiles": b_compiles,
        "daemon_b_remote_hits": b_remote_hits,
        "speedup": a_seconds / b_seconds if b_seconds else float("inf"),
    }
    rows = [
        ["A (cold)", len(sweep), a_compiles, f"{a_seconds:.2f}"],
        ["B (shared tier)", len(sweep), b_compiles, f"{b_seconds:.2f}"],
    ]
    return rows, raw


def _median_put_ms(cache, n: int = 40) -> float:
    """Median latency of n distinct-key puts (distinct so the
    content-addressed skip never short-circuits the write)."""
    payload = {"blob": os.urandom(32 * 1024)}
    samples = []
    for _ in range(n):
        key = secrets.token_hex(32)
        t0 = time.perf_counter()
        cache.put(key, payload)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def measure_put_latency():
    """Local-only vs. layered (remote up / remote dead) put latency."""
    import logging

    logging.getLogger("repro.cache").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        local = CompileCache(cache_dir=os.path.join(tmp, "local"))
        local_ms = _median_put_ms(local)

        with StoreServer(os.path.join(tmp, "remote")) as srv:
            tiered = resolve_cache(
                f"tiered:{os.path.join(tmp, 'node')}|{srv.url}"
            )
            tiered_ms = _median_put_ms(tiered)
            flushed = tiered.flush(30.0)
            tiered.close()

        # a dead remote must degrade, not fail or stall
        dead = resolve_cache(
            f"tiered:{os.path.join(tmp, 'dead_node')}|http://127.0.0.1:9"
        )
        dead_ms = _median_put_ms(dead)
        assert dead.get(secrets.token_hex(32)) is None  # still no exception
        down_skips = dict(dead.tier_metrics())["layered"].get("remote_down_skips")
        dead.close()

    raw = {
        "local_put_ms": local_ms,
        "tiered_put_ms": tiered_ms,
        "dead_remote_put_ms": dead_ms,
        "flushed": flushed,
        "dead_remote_down_skips": down_skips,
        "overhead_ratio": tiered_ms / local_ms if local_ms else float("inf"),
    }
    rows = [
        ["local only", f"{local_ms:.3f}"],
        ["layered (remote up)", f"{tiered_ms:.3f}"],
        ["layered (remote dead)", f"{dead_ms:.3f}"],
    ]
    return rows, raw


def run(quick: bool = False):
    workloads = QUICK_WARM_START_WORKLOADS if quick else WARM_START_WORKLOADS
    tier_rows, tier_raw = measure_tiers(workloads)
    print_table(
        "Fresh-process compile by tier (ms)",
        ["benchmark", "cold", "remote-warm", "local-warm", "remote speedup"],
        tier_rows,
    )
    daemon_rows, daemon_raw = measure_two_daemons(workloads)
    print_table(
        "Two compile daemons, one shared remote tier",
        ["daemon", "workloads", "compiles", "wall (s)"],
        daemon_rows,
    )
    put_rows, put_raw = measure_put_latency()
    print_table(
        "Median put latency (ms): write-behind stays off the hot path",
        ["store", "put"],
        put_rows,
    )
    raw = {"tiers": tier_raw, "daemons": daemon_raw, "put_latency": put_raw}
    path = save_results("cache_fabric", raw)
    print(f"saved {path}")
    return raw


def _check(raw) -> int:
    """The smoke assertions CI runs; returns a shell exit code."""
    total_cold = sum(r["cold_seconds"] for r in raw["tiers"].values())
    total_remote = sum(r["remote_warm_seconds"] for r in raw["tiers"].values())
    speedup = total_cold / total_remote if total_remote else float("inf")
    if speedup < 5.0:
        print(
            f"FAIL: remote-warm total {total_remote:.3f}s is only "
            f"{speedup:.2f}x faster than cold {total_cold:.3f}s (need >= 5x)"
        )
        return 1
    if raw["daemons"]["daemon_b_compiles"] != 0:
        print("FAIL: the second daemon compiled instead of using the shared tier")
        return 1
    ratio = raw["put_latency"]["overhead_ratio"]
    if ratio > 10.0:
        print(
            f"FAIL: layered put is {ratio:.1f}x the local put "
            "(write-behind is on the hot path?)"
        )
        return 1
    print(
        f"ok: remote-warm {speedup:.1f}x vs cold; daemon B answered "
        f"{raw['daemons']['daemon_b_remote_hits']} workloads with 0 compiles; "
        f"layered put {ratio:.2f}x local"
    )
    return 0


def test_cache_fabric(benchmark):
    raw = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    assert _check(raw) == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: three workloads instead of the 15-workload sweep",
    )
    args = ap.parse_args(argv)
    return _check(run(quick=args.quick))


if __name__ == "__main__":
    sys.exit(main())
