"""Compile-server benchmark: cold vs. warm request latency and the
effectiveness of single-flight dedup under a thundering herd.

The serve subsystem's claim is twofold.  First, a long-lived daemon
amortizes warm state *across* invocations: a repeat compile answers from
the in-process LRU in a few milliseconds instead of re-running the pass
(acceptance: warm repeat < 50 ms, client-observed, socket round trip
included).  Second, identical requests that arrive *while one is already
compiling* collapse onto that compile: 8 concurrent clients asking for
the same fresh fingerprint cost exactly 1 compile and 7 dedup hits —
counted by the server's own live ``stats`` endpoint, which is also how
the numbers here are gathered.

The daemon runs in-process on a background thread with an isolated cache
directory (nothing leaks into ``~/.cache/repro``); clients are real
blocking sockets.  Results land in ``benchmarks/results/serve.json`` and
a ``repro-metrics/1`` snapshot in ``benchmarks/results/serve_perf.json``
(``--quick``: both in the git-ignored ``benchmarks/results/quick/``).
"""

import argparse
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import print_table, save_perf_snapshot, save_results

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.service import CompileCache

#: (workload, size) measured for cold/warm latency.
LATENCY_WORKLOADS = [
    ("conv2d", 64),
    ("atax", 256),
    ("harris", 256),
    ("unsharp_mask", 256),
]
QUICK_LATENCY_WORKLOADS = LATENCY_WORKLOADS[:2]

#: The herd compiles this (workload, size, tiles) — tile sizes no latency
#: run uses, so the fingerprint is cold when the 8 clients race for it.
HERD = ("harris", 512, [48, 48])
WARM_REPEATS = 5
HERD_CLIENTS = 8


def measure_latency(sock, workloads):
    rows, raw = [], {}
    with ServeClient(socket_path=sock) as client:
        for name, size in workloads:
            t0 = time.perf_counter()
            cold_reply = client.compile(name, size=size)
            cold = time.perf_counter() - t0
            assert cold_reply["from_cache"] is False, (name, cold_reply)
            warm_samples = []
            for _ in range(WARM_REPEATS):
                t0 = time.perf_counter()
                reply = client.compile(name, size=size)
                warm_samples.append(time.perf_counter() - t0)
                assert reply["from_cache"] is True, (name, reply)
            warm = min(warm_samples)
            raw[name] = {
                "size": size,
                "cold_seconds": cold,
                "warm_seconds": warm,
                "speedup": cold / warm,
            }
            rows.append(
                [name, size, f"{cold * 1e3:9.1f}", f"{warm * 1e3:9.2f}",
                 f"{cold / warm:8.1f}x"]
            )
    return rows, raw


def measure_dedup(sock):
    """8 clients, one barrier, one fresh fingerprint: count real compiles."""
    workload, size, tiles = HERD
    with ServeClient(socket_path=sock) as probe:
        before = probe.stats()["counters"]
    barrier = threading.Barrier(HERD_CLIENTS)
    replies, errors = [], []

    def one(client):
        try:
            barrier.wait(30)
            replies.append(
                client.compile(workload, size=size, tile_sizes=tiles)
            )
        except Exception as exc:  # pragma: no cover - surfaced in _check
            errors.append(repr(exc))
        finally:
            client.close()

    # Connect everyone *before* the barrier so the requests hit the
    # server within microseconds of each other.
    clients = [ServeClient(socket_path=sock) for _ in range(HERD_CLIENTS)]
    threads = [
        threading.Thread(target=one, args=(c,)) for c in clients
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    wall = time.perf_counter() - t0
    with ServeClient(socket_path=sock) as probe:
        after = probe.stats()["counters"]

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "workload": workload,
        "size": size,
        "clients": HERD_CLIENTS,
        "errors": errors,
        "replies": len(replies),
        "deduped_replies": sum(bool(r.get("deduped")) for r in replies),
        "compiles": delta("serve.compiles"),
        "dedup_hits": delta("serve.dedup_hits"),
        "cache_hits": delta("serve.cache_hits"),
        "herd_wall_seconds": wall,
    }


def run(quick=False):
    workloads = QUICK_LATENCY_WORKLOADS if quick else LATENCY_WORKLOADS
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        config = ServeConfig(
            socket_path=os.path.join(tmp, "serve.sock"),
            cache=CompileCache(cache_dir=os.path.join(tmp, "cache")),
            workers=2,
        )
        with ServerThread(config):
            rows, latency = measure_latency(config.socket_path, workloads)
            print_table(
                "Compile-server latency (client-observed, over unix socket)",
                ["workload", "size", "cold ms", "warm ms", "speedup"],
                rows,
            )
            dedup = measure_dedup(config.socket_path)
    print(
        f"thundering herd: {dedup['clients']} identical requests -> "
        f"{dedup['compiles']} compile(s), {dedup['dedup_hits']} dedup hits, "
        f"{dedup['cache_hits']} cache hits "
        f"in {dedup['herd_wall_seconds']:.3f}s wall"
    )
    return {"latency": latency, "dedup": dedup}


def _check(raw) -> int:
    failures = []
    for name, r in raw["latency"].items():
        # acceptance: warm repeats answer from the in-process cache fast
        if r["warm_seconds"] >= 0.050:
            failures.append(
                f"{name}: warm repeat took {r['warm_seconds'] * 1e3:.1f} ms "
                "(>= 50 ms)"
            )
    dedup = raw["dedup"]
    if dedup["errors"]:
        failures.append(f"herd clients errored: {dedup['errors']}")
    if dedup["replies"] != dedup["clients"]:
        failures.append(
            f"only {dedup['replies']}/{dedup['clients']} herd replies arrived"
        )
    # acceptance: one compile, every other request deduped onto it
    if dedup["compiles"] != 1:
        failures.append(f"herd cost {dedup['compiles']} compiles, wanted 1")
    if dedup["dedup_hits"] != dedup["clients"] - 1:
        failures.append(
            f"dedup counter is {dedup['dedup_hits']}, "
            f"wanted {dedup['clients'] - 1}"
        )
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        warm = min(r["warm_seconds"] for r in raw["latency"].values())
        print(
            f"ok: warm repeat {warm * 1e3:.2f} ms, "
            f"{dedup['clients']} concurrent identical requests -> "
            f"{dedup['compiles']} compile + {dedup['dedup_hits']} dedup hits"
        )
    return 1 if failures else 0


def test_serve_bench(benchmark):
    raw = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    assert _check(raw) == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: two latency workloads only",
    )
    args = ap.parse_args(argv)
    raw = run(quick=args.quick)
    save_results("serve", raw, quick=args.quick)
    gauges = {
        f"serve.{name}.{kind}_seconds": r[f"{kind}_seconds"]
        for name, r in raw["latency"].items()
        for kind in ("cold", "warm")
    }
    gauges["serve.herd_wall_seconds"] = raw["dedup"]["herd_wall_seconds"]
    path = save_perf_snapshot(
        "serve_perf",
        gauges,
        benchmark="serve",
        clients=raw["dedup"]["clients"],
        quick=bool(args.quick),
    )
    print(f"perf snapshot: {path}")
    return _check(raw)


if __name__ == "__main__":
    sys.exit(main())
