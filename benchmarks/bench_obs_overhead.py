"""No-listener overhead of the observability layer.

The pipeline is instrumented at every pass boundary and in the presburger
hot loops, so the disabled path (no ``collect()`` active) must be
near-free.  Measuring that directly with A/B wall-clock is hopeless — the
effect is inside timer noise — so this benchmark bounds it analytically:

1. compile a workload cold and time it (``T``);
2. compile it again under a counting collector to learn exactly how many
   ``span()`` / ``count()`` / ``observe()`` calls that compile performs;
3. microbenchmark the *no-op* cost of each call (no collector active);
4. assert ``(n_span * c_span + n_count * c_count + n_observe * c_observe)
   / T < 2%``.

Saves ``benchmarks/results/obs_overhead.json`` (``--serve``:
``obs_overhead_serve.json``, which ``--serve --quick`` writes to the
git-ignored ``benchmarks/results/quick/``); exits non-zero when the bound
is violated.
"""

import argparse
import gc
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from common import save_results
from repro import CompileOptions, obs
from repro.core import optimize
from repro.presburger import memo

#: The budget the instrumentation must stay under on a cold compile.
OVERHEAD_BUDGET = 0.02


class CallCounter(obs.CompileReport):
    """A report that counts instrumentation *calls* instead of contents."""

    def __init__(self):
        super().__init__()
        self.n_spans = 0
        self.n_counts = 0
        self.n_observes = 0

    def add_span(self, name, seconds):
        self.n_spans += 1
        super().add_span(name, seconds)

    def add_count(self, name, n=1):
        self.n_counts += 1
        super().add_count(name, n)

    def observe(self, name, value, buckets=()):
        self.n_observes += 1


def noop_cost(fn, iters):
    """Per-call seconds of ``fn`` when no collector is listening."""
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def _span_noop():
    with obs.span("bench_overhead"):
        pass


def _count_noop():
    obs.count("bench_overhead")


def _observe_noop():
    obs.observe("bench_overhead", 3)


def run_bench(workload: str, size: int, iters: int):
    from repro.api import default_tile_sizes, get_workload

    assert not obs.active(), "benchmark needs the disabled path"
    prog = get_workload(workload, size)
    tiles = default_tile_sizes(workload)

    memo.clear_all()
    t0 = time.perf_counter()
    optimize(prog, CompileOptions(tile_sizes=tiles))
    compile_seconds = time.perf_counter() - t0

    memo.clear_all()
    counter = CallCounter()
    with obs.collect(report=counter):
        optimize(prog, CompileOptions(tile_sizes=tiles))

    c_span = noop_cost(_span_noop, iters)
    c_count = noop_cost(_count_noop, iters)
    c_observe = noop_cost(_observe_noop, iters)

    est = (
        counter.n_spans * c_span
        + counter.n_counts * c_count
        + counter.n_observes * c_observe
    )
    ratio = est / compile_seconds
    return {
        "workload": workload,
        "size": size,
        "compile_seconds": compile_seconds,
        "span_calls": counter.n_spans,
        "count_calls": counter.n_counts,
        "observe_calls": counter.n_observes,
        "span_noop_ns": c_span * 1e9,
        "count_noop_ns": c_count * 1e9,
        "observe_noop_ns": c_observe * 1e9,
        "estimated_overhead_seconds": est,
        "overhead_ratio": ratio,
        "budget": OVERHEAD_BUDGET,
    }


def run_serve_bench(workload: str, size: int, requests: int, repeats: int):
    """Tracing overhead on a warm-compile loop against an embedded daemon.

    Two request modes over the same compile: untraced and traced (the
    client sends a trace id, the daemon opens a tracing collector and
    ships the span payload back).  The result cache is off, so the daemon
    is *warm* (imports, presburger memo) but every request pays real
    compile work, which is what the 2% budget is relative to.

    The same lesson as the disabled-path bound above applies: A/B
    wall-clock on a shared machine cannot resolve a ~1% effect — drift
    between interleaved requests alone swings ±5%.  The end-to-end loop
    therefore provides the *denominator* (median plain-request latency)
    and a smoke check that every mode round-trips, while the *numerator*
    is the traced path's additive work measured directly where it is
    deterministic:

    * recording the request's actual spans into a
      :class:`~repro.obs.distributed.WireRows` collector and building its
      payload, less recording them into the plain collector every
      untraced request opens too (:func:`_replay`: every row's span with
      its attributes and counters, every folded span as often as its row
      counts it),
    * JSON-encoding the span payload into the response,
    * JSON-decoding it again client-side.
    """
    import json
    import tempfile

    from repro.obs import distributed
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    with tempfile.TemporaryDirectory(prefix="bench-obs-serve-") as tmp:
        config = ServeConfig(
            socket_path=os.path.join(tmp, "serve.sock"),
            cache=None,
        )
        with ServerThread(config):
            with ServeClient(socket_path=config.socket_path) as client:
                # First compiles warm the daemon (imports, presburger
                # memo); the timed loop then does the same real work
                # every request.
                client.compile(workload, size=size)
                client.compile(workload, size=size)

                modes = (
                    ("plain", lambda: None),
                    ("traced", distributed.new_trace_id),
                )
                times = {name: [] for name, _ in modes}
                payload = None
                for round_no in range(repeats * requests):
                    gc.collect()
                    for i in range(len(modes)):
                        name, make_trace = modes[(round_no + i) % len(modes)]
                        t0 = time.perf_counter()
                        out = client.compile(
                            workload, size=size, trace=make_trace()
                        )
                        times[name].append(time.perf_counter() - t0)
                        if name == "traced":
                            payload = out.get("trace") or payload

    if payload is None:
        raise RuntimeError("traced requests returned no span payload")
    plain = _median(times["plain"])

    # Deterministic additive cost of the traced path, against the real
    # payload this workload produces: recording its spans into rows and
    # building the payload, the reply's JSON encoding and the client's
    # decoding.
    events = distributed.wire_to_events(payload)
    if _rows(_replay(events)) != _rows(payload):
        raise RuntimeError("the replay does not record the request's rows")
    folded = sum(
        n for _, i, n in payload["c"] if _folded_span(payload["counter_names"][i])
    )
    t_record = max(
        0.0,
        _best_of(lambda: _replay(events), 50)
        - _best_of(lambda: _replay(events, traced=False), 50),
    )
    encoded = json.dumps({"ok": True, "trace": payload})
    t_encode = _best_of(lambda: json.dumps({"ok": True, "trace": payload}), 50)
    t_decode = _best_of(lambda: json.loads(encoded), 50)
    traced_est = t_record + t_encode + t_decode
    print(
        f"  record {t_record * 1e3:.3f} ms, encode {t_encode * 1e3:.3f} ms, "
        f"decode {t_decode * 1e3:.3f} ms "
        f"({len(events)} rows, {folded} folded spans)"
    )

    return {
        "workload": workload,
        "size": size,
        "requests": requests,
        "repeats": repeats,
        "plain_seconds": plain,
        "traced_seconds": _median(times["traced"]),
        "wire_spans": len(events),
        "folded_spans": folded,
        "payload_bytes": len(encoded),
        "traced_overhead_seconds": traced_est,
        "traced_overhead_ratio": traced_est / plain,
        "budget": OVERHEAD_BUDGET,
    }


def _folded_span(counter: str):
    """The span name a ``fold.<name>.calls`` counter counts, else ``None``."""
    if counter.startswith("fold.") and counter.endswith(".calls"):
        return counter[len("fold."):-len(".calls")]
    return None


def _rows(payload):
    """A payload's rows as ``(name, counters)`` pairs in row order, without
    the clock's ``fold.<name>.us`` counters."""
    names, counter_names = payload["names"], payload["counter_names"]
    counters = [{} for _ in payload["name"]]
    for row, i, n in payload["c"]:
        if not (counter_names[i].startswith("fold.") and counter_names[i].endswith(".us")):
            counters[row][counter_names[i]] = n
    return [(names[i], c) for i, c in zip(payload["name"], counters)]


def _replay(events, traced=True):
    """Record ``events``, a traced request's rows, the way the daemon
    does, through ``obs.span`` and ``obs.count``: each row's span with its
    attributes, and inside it each span the row folded, as often as the
    row counts it, and each of its counters bumped one at a time.  Traced,
    into a fresh ``WireRows`` under ``collect(trace=True)``, returning its
    payload; else into the plain collector of an untraced request."""
    from repro.obs import distributed

    children = {}
    for e in sorted(events, key=lambda e: e.start):
        children.setdefault(e.parent, []).append(e)

    def record(e):
        with obs.span(e.name, **e.attrs):
            for counter, n in e.counters.items():
                name = _folded_span(counter)
                if name is not None:
                    for _ in range(n):
                        with obs.span(name):
                            pass
                elif not counter.startswith("fold."):
                    for _ in range(n):
                        obs.count(counter)
            for child in children.get(e.id, ()):
                record(child)

    rows = distributed.WireRows("daemon") if traced else None
    with obs.collect(rows, trace=traced):
        for root in children.get(None, ()):
            record(root)
    return rows.payload() if traced else None


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _best_of(fn, iters):
    """Tightest per-call seconds over a few batched repetitions."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--size", type=int, default=None)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller image, fewer microbenchmark iterations",
    )
    ap.add_argument(
        "--serve",
        action="store_true",
        help="measure end-to-end tracing overhead on a warm-compile loop "
        "against an embedded compile daemon",
    )
    ap.add_argument("--requests", type=int, default=None,
                    help="--serve: requests per timed loop")
    ap.add_argument("--repeats", type=int, default=None,
                    help="--serve: loops per mode (best-of)")
    args = ap.parse_args(argv)
    if args.serve:
        raw = run_serve_bench(
            args.workload or "local_laplacian",
            args.size or 128,
            args.requests or (5 if args.quick else 10),
            args.repeats or (3 if args.quick else 5),
        )
        save_results("obs_overhead_serve", raw, quick=args.quick)
        print(
            f"{raw['workload']} (size {raw['size']}): "
            f"{raw['requests'] * raw['repeats']} interleaved warm rounds; "
            f"median request plain {raw['plain_seconds'] * 1e3:.1f} ms, "
            f"traced {raw['traced_seconds'] * 1e3:.1f} ms"
        )
        print(
            f"traced additive cost {raw['traced_overhead_seconds'] * 1e3:.2f} ms "
            f"({raw['traced_overhead_ratio'] * 100:.2f}% of a warm request; "
            f"{raw['wire_spans']} wire spans, {raw['payload_bytes']} payload bytes)"
        )
        if raw["traced_overhead_ratio"] >= OVERHEAD_BUDGET:
            print(
                f"FAIL: traced daemon overhead "
                f"{raw['traced_overhead_ratio'] * 100:.2f}% >= 2%"
            )
            return 1
        print("ok: traced daemon overhead < 2%")
        return 0
    size = args.size or (128 if args.quick else 512)
    iters = 50_000 if args.quick else 500_000

    raw = run_bench(args.workload or "local_laplacian", size, iters)
    save_results("obs_overhead", raw)
    print(
        f"{raw['workload']} (size {size}): cold compile "
        f"{raw['compile_seconds'] * 1e3:.1f} ms; "
        f"{raw['span_calls']} spans, {raw['count_calls']} counts, "
        f"{raw['observe_calls']} observes"
    )
    print(
        f"no-op costs: span {raw['span_noop_ns']:.0f} ns, "
        f"count {raw['count_noop_ns']:.0f} ns, "
        f"observe {raw['observe_noop_ns']:.0f} ns"
    )
    pct = raw["overhead_ratio"] * 100
    if raw["overhead_ratio"] >= OVERHEAD_BUDGET:
        print(f"FAIL: estimated disabled-path overhead {pct:.3f}% >= 2%")
        return 1
    print(f"ok: estimated disabled-path overhead {pct:.3f}% < 2%")
    return 0


def test_obs_overhead():
    raw = run_bench("local_laplacian", 128, 50_000)
    save_results("obs_overhead", raw)
    assert raw["overhead_ratio"] < OVERHEAD_BUDGET, raw


if __name__ == "__main__":
    sys.exit(main())
