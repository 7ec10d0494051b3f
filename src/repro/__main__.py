"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show the available workloads;
* ``optimize <workload>`` — run the paper's pass and print the fusion
  result, schedule tree and compile time;
* ``code <workload>`` — print the generated OpenMP or CUDA code;
* ``time <workload>`` — predicted execution times of every strategy the
  paper compares (``repro.baselines.strategies``) on the modeled machines;
* ``tune <workload>`` — exhaustive tile-size auto-tuning against the
  machine model (the compile cache makes a repeated sweep all hits);
* ``trace <workload> -o trace.json`` — compile under a tracing collector
  and export the hierarchical span events as Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``);
* ``profile <workload>`` — the same compile, rendered as a span tree with
  self/total time per pass;
* ``stats diff A.json B.json`` — compare two metric snapshots
  (``repro-metrics/1``) and print what changed;
* ``cache info`` / ``cache clear`` / ``cache gc`` — inspect, empty or
  garbage-collect the on-disk compile cache (``$REPRO_CACHE_DIR``,
  default ``~/.cache/repro``; GC budgets via ``--max-bytes``/``--max-age``
  or ``$REPRO_CACHE_MAX_BYTES``/``$REPRO_CACHE_MAX_AGE``, same spelling);
* ``serve`` — run the long-lived compile server (unix socket and/or TCP)
  that keeps caches warm and deduplicates identical in-flight requests;
  daemons given the same ``--cache`` directory share warm state;
* ``top`` — a live view of a running server, each frame built from two
  of its ``stats`` snapshots;
* ``client compile|tune|stats|health|shutdown`` — talk to a running
  server (``client stats --json`` emits the raw ``repro-metrics/1``
  snapshot).

The verbs are one table, :data:`VERBS`, and each imports what it runs:
``repro client`` loads only :mod:`repro.serve.client` and its protocol,
``repro serve`` the server, and a compiler verb the passes it calls.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Optional


def _build_workload(name: str, size: Optional[int]):
    from .workloads import UnknownWorkloadError, build_workload

    try:
        return build_workload(name, size)
    except UnknownWorkloadError:
        raise SystemExit(
            f"unknown workload {name!r}; try `python -m repro list`"
        )


def _default_tiles(name: str):
    from .workloads import default_tile_sizes

    return default_tile_sizes(name)


def _program_and_tiles(args):
    """The workload ``args`` names and its tile sizes (``--tile``, else the
    workload's defaults)."""
    prog = _build_workload(args.workload, args.size)
    return prog, tuple(args.tile) if args.tile else _default_tiles(args.workload)


def cmd_list(_args) -> int:
    from .pipelines import IMAGE_PIPELINES, mixed, polybench

    print("image pipelines: " + ", ".join(sorted(IMAGE_PIPELINES)))
    print("polybench:       " + ", ".join(sorted(polybench.BUILDERS)))
    print("other:           conv2d, conv_bn, equake")
    print("mixed:           " + ", ".join(sorted(mixed.MIXED_BUILDERS)))
    return 0


def cmd_optimize(args) -> int:
    from . import obs
    from .core import optimize
    from .options import CompileOptions
    from .service import cached_optimize, default_cache

    prog, tiles = _program_and_tiles(args)
    cache = None if args.no_cache else default_cache()
    options = CompileOptions(target=args.target, tile_sizes=tiles, cache=cache)
    with obs.collect(trace=bool(args.trace)) as report:
        if cache is None:
            result = optimize(prog, options)
        else:
            result = cached_optimize(prog, options=options)
        if args.stats:
            _emit_c(result, prog)
    cached = cache is not None and cache.stats.hits > 0
    print(f"workload:     {prog.name} ({len(prog.statements)} statements)")
    print(f"target:       {result.target.name}, tile sizes {tiles}")
    print(f"compile time: {result.compile_seconds * 1e3:.1f} ms"
          + (" (served from cache)" if cached else ""))
    print(f"fusion:       {result.fusion_summary()}")
    if args.trace:
        obs.write_trace(report, args.trace)
        print(f"trace:        {args.trace} ({len(report.events)} spans)")
    if args.stats:
        if cache is not None:
            for name, value in cache.counters().items():
                report.set_gauge(f"cache.{name}", value)
        print()
        print(report.format())
    if args.tree:
        print()
        print(result.tree.pretty())
    return 0


def _traced_compile(args):
    """One full cold compile (optimize + codegen) under a tracing collector.

    Returns ``(program, report, wall_seconds)``.  The compile cache is
    bypassed on purpose: a trace of a cache hit shows nothing.
    """
    from time import perf_counter

    from . import obs
    from .codegen import print_tree
    from .core import optimize
    from .options import CompileOptions

    prog, tiles = _program_and_tiles(args)
    style = "cuda" if args.target == "gpu" else "openmp"
    t0 = perf_counter()
    with obs.collect(trace=True) as report:
        with obs.span("compile", workload=args.workload, target=args.target):
            result = optimize(
                prog, CompileOptions(target=args.target, tile_sizes=tiles)
            )
            if args.target == "gpu":
                from .codegen.gpu_mapping import map_to_gpu

                map_to_gpu(result)
            with obs.span("codegen"):
                print_tree(result.tree, prog, style=style)
                _emit_c(result, prog)
    return prog, report, perf_counter() - t0


def _emit_c(result, prog) -> None:
    """Run the compilable C backend for what it records: the
    ``codegen.generate_c`` span and the ``codegen.c.*`` counters say which
    guards and bounds it elided, which tensors got per-tile buffers and
    why the others did not.  Only the cpu target has such a backend; when
    it refuses a program (a tensor of extent 0) the reason goes to stderr."""
    from . import obs
    from .codegen.cbackend import CBackendError, generate_c

    if result.target.name != "cpu":
        return
    try:
        generate_c(result.tree, prog)
    except CBackendError as exc:
        obs.count("codegen.c.refused")
        print(f"note: no C emitted for {prog.name}: {exc}", file=sys.stderr)


def cmd_trace(args) -> int:
    from . import obs
    from .obs.schema import trace_nesting_depth

    prog, report, wall = _traced_compile(args)
    obs.write_trace(report, args.output)
    depth = trace_nesting_depth(obs.chrome_trace(report))
    dropped = f", {report.dropped_events} dropped" if report.dropped_events else ""
    print(
        f"{prog.name}: {len(report.events)} spans{dropped} "
        f"(nesting depth {depth}) in {wall * 1e3:.1f} ms -> {args.output}"
    )
    return 0


def cmd_profile(args) -> int:
    from . import obs

    prog, report, wall = _traced_compile(args)
    roots = obs.profile_tree(report)
    print(f"{prog.name} compile profile ({args.target}):")
    print(
        obs.format_profile(
            roots, top=args.top, max_depth=args.depth, wall_seconds=wall
        )
    )
    return 0


def cmd_stats(args) -> int:
    import json

    from . import obs
    from .obs.schema import validate_metrics_snapshot

    snaps = []
    for path in (args.a, args.b):
        with open(path) as f:
            snap = json.load(f)
        errors = validate_metrics_snapshot(snap)
        if errors:
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
            return 2
        snaps.append(snap)
    deltas = obs.diff_snapshots(snaps[0], snaps[1])
    print(obs.format_diff(deltas, only_changed=not args.all))
    return 0


def cmd_code(args) -> int:
    from .codegen import print_tree
    from .core import optimize
    from .options import CompileOptions

    prog, tiles = _program_and_tiles(args)
    result = optimize(prog, CompileOptions(target=args.target, tile_sizes=tiles))
    style = "cuda" if args.target == "gpu" else "openmp"
    if args.target == "gpu":
        from .codegen.gpu_mapping import map_to_gpu

        map_to_gpu(result)
    print(print_tree(result.tree, prog, style=style))
    return 0


def cmd_time(args) -> int:
    from .baselines import strategies
    from .machine import analyze_optimized, cpu_time, gpu_time
    from .options import CompileOptions

    prog, tiles = _program_and_tiles(args)
    options = CompileOptions(target=args.target, tile_sizes=tiles)
    threads = f" ({args.threads} threads)" if args.target == "cpu" else ""
    print(f"{prog.name} on modeled {args.target}{threads}:")
    for name, result in strategies(prog, options).items():
        text = "failed"
        if result is not None:
            work = analyze_optimized(result)
            t = gpu_time(work) if args.target == "gpu" else cpu_time(work, args.threads)
            text = f"{t * 1e3:10.3f} ms"
        print(f"  {name:12s} {text}")
    return 0


def cmd_tune(args) -> int:
    from .options import CompileOptions
    from .scheduler.autotune import autotune_tile_sizes
    from .service import default_cache

    prog = _build_workload(args.workload, args.size)
    candidates = tuple(args.candidates) if args.candidates else (8, 32, 128)
    options = CompileOptions(
        target=args.target,
        cache=None if args.no_cache else default_cache(),
    )
    result = autotune_tile_sizes(
        prog,
        threads=args.threads,
        candidates=candidates,
        options=options,
    )
    print(f"searched {len(result.evaluations)} tilings "
          f"in {result.tuning_seconds:.1f} s")
    print(f"best tile sizes: {result.best_sizes} "
          f"({result.best_time * 1e3:.3f} ms modeled)")
    for sizes, t in result.top(5):
        print(f"  {str(sizes):14s} {t * 1e3:9.3f} ms")
    return 0


def cmd_cache(args) -> int:
    from .service import resolve_cache
    from .service.store import parse_age, parse_size

    cache = resolve_cache(args.cache)
    if args.action == "clear":
        what = args.what
        removed = cache.clear(
            results=what in ("all", "results"),
            memos=what in ("all", "memos"),
        )
        kind = "" if what == "all" else f"{what} "
        print(f"removed {removed} {kind}entries from {cache.cache_dir}")
        return 0
    if args.action == "gc":
        report = cache.gc(
            max_bytes=parse_size(args.max_bytes),
            max_age=parse_age(args.max_age),
            dry_run=args.dry_run,
        )
        verb = "would remove" if report.dry_run else "removed"
        print(f"scanned {report.scanned} entries "
              f"({report.scanned_bytes / 1024:.1f} KiB) in {cache.cache_dir}")
        print(f"{verb} {report.removed} entries "
              f"({report.removed_bytes / 1024:.1f} KiB): "
              f"{report.expired} expired, {report.evicted} size-evicted")
        print(f"remaining: {report.remaining_entries} entries "
              f"({report.remaining_bytes / 1024:.1f} KiB)")
        if report.errors:
            print(f"errors: {report.errors}")
        return 0
    info = cache.info()
    print(f"cache dir:      {info['cache_dir']}")
    print(f"schema version: {info['schema_version']}")
    print(f"disk entries:   {info['disk_entries']} "
          f"({info['disk_bytes'] / 1024:.1f} KiB)")
    print(f"memo snapshots: {info['memo_entries']} "
          f"({info['memo_bytes'] / 1024:.1f} KiB)")
    if info.get("gc_max_bytes") is not None or info.get("gc_max_age") is not None:
        print(f"gc budget:      max_bytes={info['gc_max_bytes']} "
              f"max_age={info['gc_max_age']}")
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import os

    from .serve.server import CompileServer, ServeConfig

    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        client_limit=args.client_limit,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        cache=None if args.no_cache else args.cache,
        events_path=args.events_log,
    )
    server = CompileServer(config)

    async def _run():
        await server.start()
        where = []
        if config.socket_path:
            where.append(f"unix:{config.socket_path}")
        if server.tcp_address:
            where.append(f"tcp:{server.tcp_address[0]}:{server.tcp_address[1]}")
        print(
            f"repro-serve listening on {', '.join(where)} "
            f"(pid {os.getpid()}, {config.workers} workers)",
            flush=True,
        )
        await server.run()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        return 130
    print("repro-serve: drained, exiting")
    return 0


def _client_work(verb: str, show, client, args) -> int:
    """Send one work verb and ``show`` its reply: every flag generated
    from the verb's row of ``protocol.PARAMS`` (:func:`_work_args`) becomes
    a param; unset ones are left to the server's defaults."""
    from .serve import protocol

    params = {
        name: getattr(args, name)
        for name in protocol.PARAMS[verb]
        if name != "workload" and hasattr(args, name)
    }
    if getattr(args, "trace_out", None):
        return _client_compile_traced(client, args, params)
    out = client.work(verb, args.workload, **params)
    show(out)
    return 0


def _print_client_compile(out) -> None:
    print(f"workload:     {out['workload']}")
    print(f"fingerprint:  {out['fingerprint']}")
    print(f"tile sizes:   {out.get('tile_sizes')}")
    print(f"compile time: {out['compile_ms']:.1f} ms (server-side)")
    print(f"from cache:   {'yes' if out['from_cache'] else 'no'}")
    print(f"deduped:      {'yes' if out.get('deduped') else 'no'}")
    if out.get("fusion"):
        print(f"fusion:       {out['fusion']}")


def _client_compile_traced(client, args, params) -> int:
    """One traced compile RPC, stitched into a Perfetto-loadable file.

    The client lane is recorded as ``repro-spans/2`` rows around the RPC;
    the daemon lane rides back in the result's ``trace`` field.
    """
    import json

    from . import obs
    from .obs.distributed import WireRows, new_trace_id, stitch, validate_wire_spans

    trace_id = new_trace_id()
    with obs.collect(WireRows("client"), trace=True) as rows:
        with obs.span("client.request", workload=args.workload, trace_id=trace_id):
            out = client.compile(args.workload, trace=trace_id, **params)
    streams = [rows.payload()]
    daemon = out.get("trace")
    if daemon and validate_wire_spans(daemon):
        daemon = None
    if daemon:
        streams.append(daemon)
    chrome = stitch(streams, trace_id)
    with open(args.trace_out, "w", encoding="utf-8") as f:
        json.dump(chrome, f)
    other = chrome["otherData"]
    print(f"workload:     {out['workload']}")
    print(f"fingerprint:  {out['fingerprint']}")
    print(f"compile time: {out['compile_ms']:.1f} ms (server-side)")
    print(f"from cache:   {'yes' if out['from_cache'] else 'no'}")
    print(f"trace id:     {trace_id}")
    print(f"trace:        {other['spans']} spans across "
          f"{', '.join(other['services'])} -> {args.trace_out}")
    if out.get("deduped"):
        print("note: no daemon spans: the request joined another client's "
              "in-flight compile, and only that client gets them",
              file=sys.stderr)
    elif not daemon:
        print("note: daemon returned no span payload (missing or malformed)",
              file=sys.stderr)
    return 0


def _print_client_tune(out) -> None:
    print(f"workload:        {out['workload']}")
    print(f"searched:        {out['evaluations']} tilings "
          f"({out['failures']} infeasible) in {out['tuning_seconds']:.1f} s")
    print(f"best tile sizes: {tuple(out['best_tile_sizes'])} "
          f"({out['best_time_ms']:.3f} ms modeled)")


def _client_stats(client, args) -> int:
    import json

    snapshot = client.stats()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    counters = snapshot.get("counters", {})
    print(f"schema:   {snapshot.get('schema')}")
    for key in sorted(k for k in counters if k.startswith("serve.")):
        print(f"  {key:28s} {counters[key]}")
    gauges = snapshot.get("gauges", {})
    for key in sorted(k for k in gauges if k.startswith("serve.")):
        print(f"  {key:28s} {gauges[key]:.3f}")
    return 0


def _format_top_frame(prev, cur) -> str:
    """One ``repro top`` frame from two consecutive ``stats`` snapshots:
    rates from the counter deltas over the daemon's own uptime between
    them, latency quantiles and gauges from ``cur``, then every metric
    that changed between the two."""
    from . import obs

    counters, gauges = cur.get("counters", {}), cur.get("gauges", {})
    before = prev.get("counters", {})

    def delta(name):
        return counters.get(name, 0) - before.get(name, 0)

    uptime = gauges.get("serve.uptime_seconds", 0.0)
    dt = uptime - prev.get("gauges", {}).get("serve.uptime_seconds", 0.0)
    done = delta("serve.compiles") + delta("serve.cache_hits") + delta("serve.dedup_hits")
    hist = cur.get("histograms", {}).get("serve.compile_ms")
    compile_ms = obs.Histogram.from_dict(hist) if hist else obs.Histogram()
    gets = gauges.get("serve.cache.tier.local.gets", 0)
    hits = gauges.get("serve.cache.tier.local.hits", 0)
    return "\n".join([
        f"repro top — up {uptime:7.1f}s   "
        f"requests {counters.get('serve.requests', 0)}   "
        f"connections {gauges.get('serve.connections', 0)}",
        f"  req/s {delta('serve.requests') / dt if dt > 0 else 0.0:7.2f}   "
        f"dedup {100.0 * delta('serve.dedup_hits') / done if done else 0.0:5.1f}%   "
        f"active flights {gauges.get('serve.inflight_keys', 0)}   "
        f"inflight compiles {gauges.get('serve.inflight_compiles', 0)}",
        f"  compile p50 {compile_ms.quantile(0.5):8.1f} ms   "
        f"p99 {compile_ms.quantile(0.99):8.1f} ms   "
        f"errors {counters.get('serve.compile_errors', 0)}   "
        f"cache hits {counters.get('serve.cache_hits', 0)} "
        f"({counters.get('service.cache.decode', 0)} decodes)",
        f"  tier local     {100.0 * hits / gets if gets else 0.0:5.1f}% hit "
        f"({gets} gets)",
        obs.format_diff(obs.diff_snapshots(prev, cur)),
    ])


def _top(client, args) -> int:
    """``repro top``: one frame per two ``stats`` snapshots ``--interval``
    apart."""
    import time as _time

    try:
        prev = client.stats()
        frames = 0
        while True:
            _time.sleep(args.interval)
            cur = client.stats()
            if not args.once:
                # ANSI: home + clear-to-end, no full-screen buffer.
                sys.stdout.write("\x1b[H\x1b[2J")
            print(_format_top_frame(prev, cur), flush=True)
            prev = cur
            frames += 1
            if args.once or (args.frames is not None and frames >= args.frames):
                return 0
    except KeyboardInterrupt:
        return 0


def _client_health(client, _args) -> int:
    h = client.health()
    print(f"status:   {h['status']}")
    print(f"pid:      {h['pid']}")
    print(f"uptime:   {h['uptime_seconds']:.1f} s")
    print(f"requests: {h['requests_total']}")
    return 0


def _client_shutdown(client, _args) -> int:
    out = client.shutdown()
    print(f"stopping: {out['stopping']} "
          f"({out['inflight_compiles']} compiles draining)")
    return 0


def _call_server(args, handler, timeout: float) -> int:
    """``handler(client, args)`` against the server ``args`` names (the
    default socket when neither ``--socket`` nor ``--host`` is given); a
    server error or an unreachable server is exit status 1."""
    from .serve.client import ServeClient, ServeError, wait_for_server

    socket_path, host, port = args.socket, args.host, args.port
    if socket_path is None and host is None:
        from .serve.server import default_socket_path

        socket_path = default_socket_path()
    try:
        if getattr(args, "wait", None):
            wait_for_server(
                socket_path=socket_path, host=host, port=port, timeout=args.wait
            )
        with ServeClient(
            socket_path=socket_path, host=host, port=port, timeout=timeout
        ) as client:
            return handler(client, args)
    except ServeError as exc:
        print(f"server error ({exc.code}): {exc.message}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(f"cannot reach compile server: {exc}", file=sys.stderr)
        return 1


def cmd_top(args) -> int:
    return _call_server(args, _top, timeout=30.0)


def _client(handler):
    """The run of a ``client`` sub-verb: ``handler(client, args)`` on a
    connection to the server the ``client`` flags name."""
    return lambda args: _call_server(args, handler, args.timeout)


# -- arguments, one function per verb that takes any -------------------------


def _cache_args(p) -> None:
    p.add_argument("action", choices=["info", "clear", "gc"])
    p.add_argument(
        "--what",
        choices=["all", "results", "memos"],
        default="all",
        help="which store `clear` empties: compile results, spilled memo "
        "snapshots, or both (default)",
    )
    p.add_argument(
        "--cache", default="default",
        help="cache to operate on: 'default', a named cache or a directory",
    )
    p.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="`gc` byte budget, e.g. 500M or 2G (mtime-LRU eviction; "
        "default $REPRO_CACHE_MAX_BYTES)",
    )
    p.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="`gc` TTL, e.g. 7d or 3600 (seconds; "
        "default $REPRO_CACHE_MAX_AGE)",
    )
    p.add_argument("--dry-run", action="store_true",
                   help="`gc`: report what would be removed, remove nothing")


def _diff_args(p) -> None:
    p.add_argument("a", help="baseline snapshot (JSON)")
    p.add_argument("b", help="current snapshot (JSON)")
    p.add_argument(
        "--all",
        action="store_true",
        help="show unchanged metrics too",
    )


def _serve_args(p) -> None:
    p.add_argument(
        "--socket", default=None,
        help="unix socket path (default <cache dir>/serve.sock "
        "when no --host is given)",
    )
    p.add_argument("--host", default=None, help="also listen on TCP")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; printed at startup)",
    )
    p.add_argument("--workers", type=int, default=2,
                   help="compile worker threads")
    p.add_argument(
        "--client-limit", type=int, default=8,
        help="max in-flight requests per connection",
    )
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request timeout in seconds")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight work at shutdown")
    p.add_argument(
        "--cache", default="default",
        help="compile cache: 'default', a named cache or a directory "
        "(daemons given the same directory share warm state)",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result cache")
    p.add_argument(
        "--events-log", default=None, metavar="PATH",
        help="append structured lifecycle events to this JSONL file "
        "(a traced request's records carry its trace id)",
    )


def _server_args(p) -> None:
    """Which running server ``top`` and ``client`` talk to."""
    p.add_argument("--socket", default=None,
                   help="unix socket path of the server")
    p.add_argument("--host", default=None, help="server TCP host")
    p.add_argument("--port", type=int, default=None, help="server TCP port")


def _top_args(p) -> None:
    _server_args(p)
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between the two snapshots of a frame (default 1)",
    )
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (CI-friendly)")
    p.add_argument("--frames", type=int, default=None,
                   help="exit after N frames")


def _client_args(p) -> None:
    _server_args(p)
    p.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to SECONDS for the server to answer health first",
    )
    p.add_argument("--timeout", type=float, default=600.0,
                   help="socket timeout in seconds")


def _work_args(verb: str, p) -> None:
    """One flag per param of the verb's row in ``protocol.PARAMS``, spelled
    from the param's checker; ``--<param>`` unless renamed here, and none
    for a param the CLI never offered."""
    from .serve import protocol

    flag_kwargs = {
        protocol.POS_INT: {"type": int},
        protocol.POS_INTS: {"type": int, "nargs": "+"},
        protocol.STR: {},
        protocol.TARGET: {"choices": protocol.TARGETS},
    }
    flag_names = {"tile_sizes": "--tile", "dims": None}
    p.add_argument("workload")
    for name, (check, _default) in protocol.PARAMS[verb].items():
        flag = flag_names.get(name, "--" + name.replace("_", "-"))
        if flag and check in flag_kwargs:
            p.add_argument(flag, dest=name, default=None, **flag_kwargs[check])


def _client_compile_args(p) -> None:
    _work_args("compile", p)
    p.add_argument(
        "--trace", dest="trace_out", nargs="?",
        const="stitched-trace.json", default=None, metavar="OUT.json",
        help="trace the request end to end and write one stitched "
        "Perfetto-loadable file (client + daemon lanes)",
    )


def _client_stats_args(p) -> None:
    p.add_argument(
        "--json", action="store_true",
        help="emit the raw repro-metrics/1 snapshot",
    )


def _workload_args(p) -> None:
    p.add_argument("workload")
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--tile", type=int, nargs="+", default=None)
    p.add_argument("--target", choices=["cpu", "gpu", "npu"], default="cpu")


def _no_cache_arg(p) -> None:
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the compile cache",
    )


def _optimize_args(p) -> None:
    _workload_args(p)
    p.add_argument("--tree", action="store_true", help="print the schedule tree")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-pass timings, counters and cache hit/miss counts",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also record a hierarchical trace and write it to PATH",
    )
    _no_cache_arg(p)


def _time_args(p) -> None:
    _workload_args(p)
    p.add_argument("--threads", type=int, default=32)


def _tune_args(p) -> None:
    _time_args(p)
    p.add_argument("--candidates", type=int, nargs="+", default=None)
    _no_cache_arg(p)


def _trace_args(p) -> None:
    _workload_args(p)
    p.add_argument(
        "-o", "--output", default="trace.json",
        help="output file (default trace.json)",
    )


def _profile_args(p) -> None:
    _workload_args(p)
    p.add_argument("--top", type=int, default=8,
                   help="children shown per level")
    p.add_argument("--depth", type=int, default=6,
                   help="maximum tree depth shown")


#: Every verb, in ``--help`` order: ``"verb"`` or ``"verb sub-verb"`` ->
#: ``(help, add its arguments, run)``.  A verb whose run is ``None`` only
#: groups sub-verbs.  A run imports what it runs, so ``repro client`` loads
#: the client and the wire protocol and never the compiler.
VERBS = {
    "list": ("list workloads", None, cmd_list),
    "cache": (
        "inspect, clear or garbage-collect the compile cache", _cache_args, cmd_cache,
    ),
    "stats": ("work with exported metric snapshots", None, None),
    "stats diff": ("compare two repro-metrics/1 snapshots", _diff_args, cmd_stats),
    "serve": ("run the long-lived compile server", _serve_args, cmd_serve),
    "top": ("live daemon telemetry dashboard (polls `stats`)", _top_args, cmd_top),
    "client": ("talk to a running compile server", _client_args, None),
    "client compile": (
        None, _client_compile_args,
        _client(partial(_client_work, "compile", _print_client_compile)),
    ),
    "client tune": (
        None, partial(_work_args, "autotune"),
        _client(partial(_client_work, "autotune", _print_client_tune)),
    ),
    "client stats": (None, _client_stats_args, _client(_client_stats)),
    "client health": (None, None, _client(_client_health)),
    "client shutdown": (None, None, _client(_client_shutdown)),
    "optimize": (None, _optimize_args, cmd_optimize),
    "code": (None, _workload_args, cmd_code),
    "time": (None, _time_args, cmd_time),
    "tune": (None, _tune_args, cmd_tune),
    "trace": (None, _trace_args, cmd_trace),
    "profile": (None, _profile_args, cmd_profile),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Post-tiling fusion (MICRO 2020 reproduction)",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (text, add_args, run) in VERBS.items():
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, **({"help": text} if text else {}))
        if add_args:
            add_args(p)
        if run is None:
            groups[path] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            p.set_defaults(fn=run)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
