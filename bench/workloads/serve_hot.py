"""Workload ``serve_hot``: the daemon user's path, every request a hit.

The primary operation is one ``ServeClient.compile(name, size,
tile_sizes)`` over a unix socket to a ``python -m repro serve``
subprocess whose cache already holds the key: serve.protocol,
serve.server, service.fingerprint, the cache's memory tier (which
decodes on every hit) and ``workloads.build_workload``; the optimizer
does nothing.  The reference operation is the same hit without daemon or
wire: ``get_workload`` + ``cached_optimize`` against a ``CompileCache``
in the client process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.api import CompileCache, CompileOptions, cached_optimize, get_workload
from repro.serve import protocol
from repro.serve.client import ServeClient, wait_for_server
from repro.service.fingerprint import fingerprint_request
from repro.workloads import build_workload

import harness
from spans import Recorder

#: Nine programs at three tile sizes each, plus the one large program
#: once.  Hit cost grows with the size of the cached result (1.6 ms for
#: 2mm, 25-33 ms for local_laplacian); the large program is also the one
#: whose hit time moves most with the machine's load, so it is 1 key in 28.
PROGRAMS: List[Tuple[str, int]] = [
    ("harris", 512),
    ("unsharp_mask", 512),
    ("bilateral_grid", 512),
    ("camera_pipeline", 512),
    ("conv2d", 256),
    ("2mm", 256),
    ("covariance", 256),
    ("equake", 8000),
    ("conv_bn", 32),
]
# local_laplacian is filled last: once its memo entries are in the daemon's
# tables every later miss spills them too (a 10 ms compile takes 0.3 s).
KEYS: List[Tuple[str, int, Tuple[int, int]]] = [
    (name, size, tiles)
    for name, size in PROGRAMS
    for tiles in ((16, 16), (32, 32), (64, 64))
] + [("local_laplacian", 512, (8, 256))]

WARMUP_ROUNDS = 3
SETUP_REPEATS = 3
TICK_EVERY = 7  # requests between two calibration samples


class Daemon:
    """A ``repro serve`` subprocess on a socket in the working directory."""

    def __init__(self, tag: str):
        self.socket = f"serve-{tag}.sock"  # relative: unix socket paths are short
        self.cache_dir = f"serve-cache-{tag}"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--cache", self.cache_dir],
            stdout=subprocess.DEVNULL,
        )
        try:
            wait_for_server(socket_path=self.socket, timeout=30.0)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with ServeClient(socket_path=self.socket, timeout=5.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=15.0)
            except Exception:
                self.proc.kill()
        self.proc.wait()


def fill(client: ServeClient) -> List[str]:
    """Compile every key once; returns what went wrong."""
    problems = []
    for name, size, tiles in KEYS:
        reply = client.compile(name, size=size, tile_sizes=tiles)
        if reply["error"] is not None or reply["from_cache"]:
            problems.append(f"fill {name}{tiles}: {reply}")
    return problems


def protocol_replica(name, size, tiles, reply: dict) -> int:
    """What the two ends spend in ``serve.protocol`` on one request;
    returns the reply's size on the wire."""
    params = {"workload": name, "target": "cpu", "startup": "smartfuse",
              "size": size, "tile_sizes": list(tiles)}
    line = protocol.encode(protocol.request("compile", params, id=1))
    protocol.validate_request(protocol.decode(line))
    wire = protocol.encode(protocol.ok_response(1, reply))
    protocol.validate_response(protocol.decode(wire))
    return len(wire)


def run(budget: harness.Budget) -> harness.Outcome:
    rec = Recorder(enabled=budget.trace)
    failures: List[str] = []
    setup: List[harness.Setup] = []
    fills: List[float] = []
    starts: List[float] = []
    daemon = None
    attempted = 0

    def start_and_fill(tag: str) -> Daemon:
        started = Daemon(tag)
        starts.append(started.start_s)
        try:
            with ServeClient(socket_path=started.socket) as client:
                t0 = time.perf_counter()
                failures.extend(fill(client))
                fills.append(time.perf_counter() - t0)
        except BaseException:
            started.stop()
            raise
        return started

    try:
        for i in range(budget.setup_repeats(SETUP_REPEATS)):
            if daemon is not None:
                daemon.stop()
            daemon, one_setup = harness.calibrated(lambda: start_and_fill(str(i)))
            setup.append(one_setup)
            attempted += len(KEYS)

        local = CompileCache(cache_dir=daemon.cache_dir)
        reply_bytes: Dict[Tuple, int] = {}

        with ServeClient(socket_path=daemon.socket) as client:

            def one_round(order, traced: bool) -> harness.Round:
                nonlocal attempted
                out = harness.Round(traced=traced)
                rec.enabled = traced
                for i, (name, size, tiles) in enumerate(order):
                    if i % TICK_EVERY == 0:
                        out.tick()
                    t0 = time.perf_counter()
                    with rec.span("serve.roundtrip", op=name):
                        reply = client.compile(name, size=size, tile_sizes=tiles)
                    t1 = time.perf_counter()
                    if traced:
                        with rec.span("serve.replica", op=name):
                            with rec.span("workloads.build"):
                                program = build_workload(name, size)
                            with rec.span("service.fingerprint"):
                                key = fingerprint_request(program, "cpu", tiles, "smartfuse")
                            with rec.span("service.mem_get"):
                                result = local.get(key)
                            with rec.span("serve.protocol"):
                                reply_bytes[(name, tiles)] = protocol_replica(
                                    name, size, tiles, reply
                                )
                    else:
                        result = cached_optimize(
                            get_workload(name, size),
                            CompileOptions(tile_sizes=tiles, cache=local),
                        )
                    t2 = time.perf_counter()
                    out.primary.append((name, t1 - t0))
                    out.reference.append((name, t2 - t1))
                    attempted += 2
                    if reply["error"] is not None or not reply["from_cache"]:
                        failures.append(f"{name}{tiles}: not a hit: {reply}")
                    elif result is None or reply["fusion"] != result.fusion_summary():
                        failures.append(f"{name}{tiles}: daemon and in-process results differ")
                out.tick()
                return out

            before: Dict[str, int] = {}

            def start_window() -> None:
                rec.reset()
                before.update(client.stats()["counters"])

            rounds = harness.run_rounds(one_round, KEYS, budget, WARMUP_ROUNDS, start_window)
            after = client.stats()["counters"]
        peak_rss = harness.vm_hwm_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    metrics, raw, counts = harness.end_to_end(rounds, setup, peak_rss)

    per_layer: Dict[str, float] = {}
    if budget.trace:
        n_requests = sum(len(r.primary) for r in rounds if r.traced)
        own = rec.self_times()
        per_request = {name: 1e3 * t / n_requests for name, t in own.items()}
        per_layer["serve.roundtrip_ms"] = per_request["serve.roundtrip"]
        replica = 0.0
        for span_name, metric in (
            ("workloads.build", "workloads.build_ms"),
            ("service.fingerprint", "service.fingerprint_ms"),
            ("service.mem_get", "service.mem_get_ms"),
            ("serve.protocol", "serve.protocol_ms"),
        ):
            per_layer[metric] = per_request[span_name]
            replica += per_request[span_name]
        per_layer["serve.wire_unattributed_ms"] = per_request["serve.roundtrip"] - replica
        for counter in ("serve.requests", "serve.cache_hits", "serve.compiles", "serve.dedup_hits"):
            per_layer[counter] = after.get(counter, 0) - before.get(counter, 0)
        latencies = [s for r in rounds if not r.traced for _, s in r.primary]
        for q in (50, 95, 99):
            per_layer[f"serve.request_p{q}_ms"] = 1e3 * harness.percentile(latencies, q)
        per_layer["serve.requests_per_s"] = len(latencies) / sum(latencies)
        per_layer["serve.reply_bytes"] = statistics.mean(reply_bytes.values())
        per_layer["serve.daemon_start_s"] = statistics.median(starts)
        per_layer["serve.fill_s"] = statistics.median(fills)
        per_layer.update(harness.program_rows(rounds, "serve", "p50_ms"))
        per_layer["trace_overhead_share"] = harness.trace_overhead_share(rounds)

    return harness.Outcome(
        end_to_end=metrics,
        raw_timings=raw,
        sample_counts=counts,
        per_layer=per_layer,
        attempted=attempted,
        failures=failures,
        spans=rec.spans,
        notes={"keys": len(KEYS)},
    )
