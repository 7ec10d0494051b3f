"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show the available workloads;
* ``optimize <workload>`` — run the paper's pass and print the fusion
  result, schedule tree and compile time;
* ``code <workload>`` — print the generated OpenMP or CUDA code;
* ``time <workload>`` — predicted execution times for our pass and the
  PPCG fusion heuristics on the modeled machines;
* ``partition <workload> --targets cpu,gpu,npu`` — assign pipeline stages
  across heterogeneous targets with the beam-search partitioner, compile
  each partition for its target and print the assignment, cut edges and
  modeled mixed-vs-single-target costs;
* ``tune <workload>`` — tile-size auto-tuning against the machine model
  (``--jobs N`` fans candidates out over the batch-compile driver;
  ``--search pruned`` ranks the grid with the learned model and runs
  exact evaluation only on the top-k; ``--collect`` appends every
  evaluated candidate to the autotune dataset);
* ``data info|export|clear`` — inspect, export or delete the autotune
  candidate dataset (``<cache dir>/datasets/autotune.jsonl``, or
  ``$REPRO_DATASET`` / ``--dataset PATH``);
* ``learn fit`` — fit the tile-size ranking model on the dataset and
  pickle it for ``tune --search pruned`` (``learn info`` shows a fitted
  model's metadata);
* ``trace <workload> -o trace.json`` — compile under a tracing collector
  and export the hierarchical span events as Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``) or JSONL;
* ``profile <workload>`` — the same compile, rendered as a span tree with
  self/total time per pass;
* ``stats diff A.json B.json`` — compare two metric snapshots
  (``repro-metrics/1``) and print what changed;
* ``cache info`` / ``cache clear`` / ``cache gc`` — inspect, empty or
  garbage-collect the on-disk compile cache (``$REPRO_CACHE_DIR``,
  default ``~/.cache/repro``; GC budgets via ``--max-bytes``/``--max-age``
  or ``$REPRO_CACHE_MAX_BYTES``/``$REPRO_CACHE_MAX_AGE``);
* ``cache serve`` — run the shared remote cache tier: an HTTP store
  server other daemons layer over via ``--cache-remote`` /
  ``$REPRO_CACHE_REMOTE`` or a ``tiered:<local>|<remote>`` cache spec;
* ``serve`` — run the long-lived compile server (unix socket and/or TCP)
  that keeps caches warm and deduplicates identical in-flight requests;
* ``client compile|tune|partition|stats|health|shutdown`` — talk to a running
  server (``client stats --json`` emits the raw ``repro-metrics/1``
  snapshot).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import obs
from .codegen import print_tree
from .core import optimize
from .machine import analyze_optimized, analyze_scheduled, cpu_time, gpu_time
from .options import CompileOptions
from .pipelines import IMAGE_PIPELINES, mixed, polybench
from .scheduler import HEURISTICS, SchedulerError, schedule_program
from .workloads import UnknownWorkloadError, build_workload, default_tile_sizes


def _build_workload(name: str, size: Optional[int]):
    try:
        return build_workload(name, size)
    except UnknownWorkloadError:
        raise SystemExit(
            f"unknown workload {name!r}; try `python -m repro list`"
        )


def _default_tiles(name: str):
    return default_tile_sizes(name)


def cmd_list(_args) -> int:
    print("image pipelines: " + ", ".join(sorted(IMAGE_PIPELINES)))
    print("polybench:       " + ", ".join(sorted(polybench.BUILDERS)))
    print("other:           conv2d, conv_bn, equake")
    print("mixed-target:    " + ", ".join(sorted(mixed.MIXED_BUILDERS)))
    return 0


def cmd_optimize(args) -> int:
    from .service import cached_optimize, default_cache

    prog = _build_workload(args.workload, args.size)
    tiles = tuple(args.tile) if args.tile else _default_tiles(args.workload)
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
            report.merge_cache_stats(cache.stats.as_dict())
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

    prog = _build_workload(args.workload, args.size)
    tiles = tuple(args.tile) if args.tile else _default_tiles(args.workload)
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
    from .codegen.cbackend import CBackendError, generate_c

    if result.target.name != "cpu":
        return
    try:
        generate_c(result.tree, prog)
    except CBackendError as exc:
        obs.count("codegen.c.refused")
        print(f"note: no C emitted for {prog.name}: {exc}", file=sys.stderr)


def cmd_trace(args) -> int:
    if args.request:
        return _cmd_trace_request(args)
    if not args.workload:
        raise SystemExit("trace: need a workload (or --request <trace-id>)")
    prog, report, wall = _traced_compile(args)
    obs.write_trace(report, args.output, format=args.format)
    depth = (
        obs.trace_nesting_depth(obs.chrome_trace(report))
        if args.format == "chrome"
        else "-"
    )
    dropped = f", {report.dropped_events} dropped" if report.dropped_events else ""
    print(
        f"{prog.name}: {len(report.events)} spans{dropped} "
        f"(nesting depth {depth}) in {wall * 1e3:.1f} ms -> {args.output}"
    )
    return 0


def _cmd_trace_request(args) -> int:
    """Stitch one distributed request's spans out of event-log files."""
    import json

    logs = args.log or []
    if not logs:
        raise SystemExit("trace --request: need at least one --log PATH")
    chrome, n_streams = obs.stitch_event_logs(logs, args.request)
    if n_streams == 0:
        print(
            f"no trace records for {args.request} in {len(logs)} log(s)",
            file=sys.stderr,
        )
        return 1
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(chrome, f)
    other = chrome["otherData"]
    print(
        f"request {args.request}: {other['spans']} spans from "
        f"{n_streams} stream(s) ({', '.join(other['services'])}) "
        f"-> {args.output}"
    )
    return 0


def cmd_profile(args) -> int:
    if args.critical_path:
        return _cmd_profile_critical_path(args)
    prog, report, wall = _traced_compile(args)
    roots = obs.profile_tree(report)
    print(f"{prog.name} compile profile ({args.target}):")
    print(
        obs.format_profile(
            roots, top=args.top, max_depth=args.depth, wall_seconds=wall
        )
    )
    return 0


def _cmd_profile_critical_path(args) -> int:
    """Partition the workload, run it, and report the critical path —
    measured span durations next to the partitioner's analytical model."""
    from .options import PartitionOptions
    from .partition import partition_pipeline
    from .partition.host import execute_partitioned

    prog = _build_workload(args.workload, args.size)
    options = PartitionOptions(
        targets=_parse_targets(args.targets),
        tile_sizes=_default_tiles(args.workload),
    )
    sched = partition_pipeline(prog, options=options)
    with obs.collect(trace=True) as report:
        execute_partitioned(sched)

    measured_nodes: dict = {}
    transfers: dict = {}
    for e in report.events:
        if e.name == "partition.compute":
            measured_nodes[e.attrs["partition"]] = e.duration
        elif e.name == "partition.transfer":
            key = (e.attrs["tensor"], e.attrs["src"], e.attrs["dst"])
            transfers[key] = transfers.get(key, 0.0) + e.duration
    modeled_nodes = {p.name: p.modeled_seconds for p in sched.partitions}

    modeled_edges = []
    measured_edges = []
    for cut in sched.cuts:
        modeled_edges.append((cut.src, cut.dst, cut.seconds))
        # The host stages a cut tensor out of src then into dst; the
        # measured edge cost is both copies.
        measured = transfers.get((cut.tensor, cut.src, "host"), 0.0) + \
            transfers.get((cut.tensor, "host", cut.dst), 0.0)
        measured_edges.append((cut.src, cut.dst, measured))

    meas_total, meas_path = obs.critical_path(measured_nodes, measured_edges)
    model_total, model_path = obs.critical_path(modeled_nodes, modeled_edges)

    print(f"{prog.name} critical path "
          f"({', '.join(options.target_names)} partitioning):")
    print(f"  {'partition':<16} {'target':<6} "
          f"{'measured':>12} {'modeled':>12}")
    for part in sched.partitions:
        meas = measured_nodes.get(part.name, 0.0)
        print(f"  {part.name:<16} {part.target:<6} "
              f"{meas * 1e6:>9.1f} us {part.modeled_seconds * 1e6:>9.1f} us")
    for cut, (_, _, meas) in zip(sched.cuts, measured_edges):
        print(f"  cut {cut.tensor:<12} {cut.src}->{cut.dst:<10} "
              f"{meas * 1e6:>9.1f} us {cut.seconds * 1e6:>9.1f} us")
    print(f"  critical path (measured): {meas_total * 1e6:.1f} us "
          f"via {' -> '.join(meas_path)}")
    print(f"  critical path (modeled):  {model_total * 1e6:.1f} us "
          f"via {' -> '.join(model_path)}")
    return 0


def cmd_stats(args) -> int:
    import json

    snaps = []
    for path in (args.a, args.b):
        with open(path) as f:
            snap = json.load(f)
        errors = obs.validate_metrics_snapshot(snap)
        if errors:
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
            return 2
        snaps.append(snap)
    deltas = obs.diff_snapshots(snaps[0], snaps[1])
    print(obs.format_diff(deltas, only_changed=not args.all))
    return 0


def cmd_code(args) -> int:
    prog = _build_workload(args.workload, args.size)
    tiles = tuple(args.tile) if args.tile else _default_tiles(args.workload)
    result = optimize(prog, CompileOptions(target=args.target, tile_sizes=tiles))
    style = "cuda" if args.target == "gpu" else "openmp"
    if args.target == "gpu":
        from .codegen.gpu_mapping import map_to_gpu

        map_to_gpu(result)
    print(print_tree(result.tree, prog, style=style))
    return 0


def cmd_time(args) -> int:
    prog = _build_workload(args.workload, args.size)
    tiles = tuple(args.tile) if args.tile else _default_tiles(args.workload)
    result = optimize(prog, CompileOptions(target=args.target, tile_sizes=tiles))
    work = analyze_optimized(result)
    rows = []
    if args.target == "gpu":
        rows.append(("ours", gpu_time(work)))
    else:
        rows.append(("ours", cpu_time(work, args.threads)))
    for heuristic in HEURISTICS:
        try:
            sched = schedule_program(prog, heuristic)
        except SchedulerError as exc:
            rows.append((heuristic, None))
            continue
        hwork = analyze_scheduled(sched, tiles)
        t = gpu_time(hwork) if args.target == "gpu" else cpu_time(hwork, args.threads)
        rows.append((heuristic, t))
    threads = f" ({args.threads} threads)" if args.target == "cpu" else ""
    print(f"{prog.name} on modeled {args.target}{threads}:")
    for name, t in rows:
        text = "failed" if t is None else f"{t * 1e3:10.3f} ms"
        print(f"  {name:12s} {text}")
    return 0


def cmd_tune(args) -> int:
    from .scheduler.autotune import autotune_tile_sizes
    from .service import default_cache

    prog = _build_workload(args.workload, args.size)
    candidates = tuple(args.candidates) if args.candidates else (8, 32, 128)
    options = CompileOptions(
        target=args.target,
        mode="auto" if args.jobs else "serial",
        jobs=args.jobs,
        cache=None if args.no_cache else default_cache(),
    )
    collect = args.collect if args.collect is not None else None
    if collect == "":
        collect = True  # bare --collect: the default store
    result = autotune_tile_sizes(
        prog,
        threads=args.threads,
        candidates=candidates,
        options=options,
        search=args.search,
        model=args.model,
        top_k=args.top_k,
        collect=collect,
    )
    print(f"searched {len(result.evaluations)} tilings "
          f"in {result.tuning_seconds:.1f} s ({result.search})")
    if result.pruned_out:
        print(f"pruned:          {result.pruned_out} candidates cut by the model")
    if result.fallback_reason:
        print(f"fallback:        {result.fallback_reason}")
    print(f"best tile sizes: {result.best_sizes} "
          f"({result.best_time * 1e3:.3f} ms modeled)")
    for sizes, t in result.top(5):
        print(f"  {str(sizes):14s} {t * 1e3:9.3f} ms")
    return 0


def _parse_targets(text):
    targets = tuple(t.strip() for t in text.split(",") if t.strip())
    bad = [t for t in targets if t not in ("cpu", "gpu", "npu")]
    if bad or not targets:
        raise SystemExit(
            f"--targets must be a comma-separated subset of cpu,gpu,npu; "
            f"got {text!r}"
        )
    return targets


def cmd_partition(args) -> int:
    from .options import PartitionOptions
    from .partition import partition_pipeline
    from .service import default_cache

    prog = _build_workload(args.workload, args.size)
    options = PartitionOptions(
        targets=_parse_targets(args.targets),
        tile_sizes=_default_tiles(args.workload),
        cache=None if args.no_cache else default_cache(),
    )
    with obs.collect() as report:
        sched = partition_pipeline(prog, options=options)
    mixed = sched.modeled["mixed"]
    single = sched.modeled["single"]
    print(f"workload:   {prog.name} ({len(prog.statements)} statements)")
    print(f"targets:    {', '.join(options.target_names)}"
          + (" (degenerate: one partition)" if sched.is_degenerate else ""))
    print("assignment: "
          + ", ".join(f"{s}:{t}" for s, t in sched.assignment.items()))
    for part in sched.partitions:
        tiles = part.result.tile_sizes
        print(f"  {part.name} [{part.target}] "
              f"{len(part.statements)} stmts, tiles {tiles}, "
              f"{part.modeled_seconds * 1e6:9.1f} us   "
              f"({', '.join(part.statements)})")
    for cut in sched.cuts:
        print(f"  cut {cut.tensor}: {cut.src}[{cut.src_target}] -> "
              f"{cut.dst}[{cut.dst_target}], {cut.nbytes} bytes, "
              f"{cut.seconds * 1e6:.1f} us")
    print(f"modeled:    mixed {mixed['total_seconds'] * 1e6:.1f} us "
          f"(compute {mixed['compute_seconds'] * 1e6:.1f} "
          f"+ transfer {mixed['transfer_seconds'] * 1e6:.1f})")
    for target, seconds in single.items():
        text = "illegal" if seconds is None else f"{seconds * 1e6:.1f} us"
        print(f"            single {target:4s} {text}")
    if args.stats:
        print()
        print(report.format())
    return 0


def cmd_data(args) -> int:
    from .data import Dataset

    dataset = Dataset(args.dataset) if args.dataset else Dataset()
    if args.action == "info":
        info = dataset.info()
        print(f"dataset:       {info['path']}")
        print(f"schema:        {info['schema']}")
        print(f"records:       {info['records']} "
              f"({info['bytes'] / 1024:.1f} KiB, "
              f"{info['invalid_lines']} invalid lines)")
        print(f"programs:      {info['programs']}")
        for name, n in info["by_program"].items():
            print(f"  {name:24s} {n}")
        for name, n in info["by_target"].items():
            print(f"  target {name:17s} {n}")
        return 0
    if args.action == "export":
        if args.output in (None, "-"):
            n = dataset.export(sys.stdout, limit=args.limit)
        else:
            with open(args.output, "w", encoding="utf-8") as f:
                n = dataset.export(f, limit=args.limit)
            print(f"exported {n} records to {args.output}")
        return 0
    removed = dataset.clear()
    print(f"removed {removed} records from {dataset.path}")
    return 0


def cmd_learn(args) -> int:
    from .data import Dataset
    from .learn import default_model_path, fit_records, load_model, save_model

    if args.action == "info":
        path = args.output or default_model_path()
        try:
            model = load_model(path)
        except FileNotFoundError:
            print(f"no model at {path}", file=sys.stderr)
            return 1
        print(f"model:     {path}")
        print(f"kind:      {model.kind}")
        print(f"features:  {len(model.feature_names)}")
        for key, value in sorted(model.meta.items()):
            print(f"  {key:20s} {value}")
        return 0
    dataset = Dataset(args.dataset) if args.dataset else Dataset()
    try:
        model = fit_records(
            dataset.records(),
            kind=args.kind,
            rounds=args.rounds,
            min_program_rows=args.min_rows,
            min_coverage=args.min_rows,
        )
    except ValueError as exc:
        print(f"cannot fit: {exc}", file=sys.stderr)
        return 1
    path = save_model(model, args.output)
    meta = model.meta
    print(f"fitted {model.kind} ranker on {meta['rows']} records "
          f"({meta['programs']} programs, "
          f"{meta['per_program_heads']} per-program heads)")
    print(f"train rmse (log cost): {meta['train_rmse_log']:.4f}")
    print(f"model: {path}")
    return 0


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_size(text):
    """``"500M"`` → bytes; bare numbers are bytes already."""
    if text is None:
        return None
    text = text.strip().lower().rstrip("b").rstrip("i")
    if text and text[-1] in _SIZE_SUFFIXES:
        return int(float(text[:-1]) * _SIZE_SUFFIXES[text[-1]])
    return int(float(text))


def _parse_age(text):
    """``"7d"`` → seconds; bare numbers are seconds already."""
    if text is None:
        return None
    text = text.strip().lower()
    if text and text[-1] in _AGE_SUFFIXES:
        return float(text[:-1]) * _AGE_SUFFIXES[text[-1]]
    return float(text)


def cmd_cache(args) -> int:
    from .service import resolve_cache

    if args.action == "serve":
        return _cmd_cache_serve(args)
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
            max_bytes=_parse_size(args.max_bytes),
            max_age=_parse_age(args.max_age),
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
    print(f"memory entries: {info['memory_entries']} "
          f"({info['memory_bytes'] / 1024:.1f} KiB)")
    if info.get("gc_max_bytes") is not None or info.get("gc_max_age") is not None:
        print(f"gc budget:      max_bytes={info['gc_max_bytes']} "
              f"max_age={info['gc_max_age']}")
    remote = info.get("remote")
    if remote:
        state = "up" if remote.get("alive") else "down"
        print(f"remote tier:    {remote.get('spec')} ({state})")
    stats = info["stats"]
    print(f"session stats:  {stats['memory_hits']} memory hits, "
          f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
          f"{stats['stores']} stores ({stats['skipped_stores']} skipped)")
    print(f"memo stats:     {stats['memo_hits']} snapshot hits, "
          f"{stats['memo_misses']} misses, {stats['memo_stores']} stores")
    for tier, tstats in info.get("tiers", {}).items():
        print(f"tier {tier:<9}  {tstats.get('hits', 0)} hits, "
              f"{tstats.get('misses', 0)} misses, "
              f"{tstats.get('puts', 0)} puts "
              f"({tstats.get('put_skips', 0)} skipped), "
              f"get {tstats.get('get_ms_mean', 0.0):.2f}ms avg, "
              f"put {tstats.get('put_ms_mean', 0.0):.2f}ms avg")
    return 0


def _cmd_cache_serve(args) -> int:
    """Run the shared remote tier: an HTTP store server over a directory."""
    from .service.cache import default_cache_dir
    from .service.stores import StoreServer

    directory = args.dir or default_cache_dir()
    server = StoreServer(
        directory, host=args.host, port=args.port, events_path=args.events_log
    )
    host, port = server.address
    print(f"repro-store serving {directory} on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        return 130
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import os

    from .serve.server import CompileServer, ServeConfig

    cache_spec = None if args.no_cache else args.cache
    if cache_spec is not None and args.cache_remote:
        cache_spec = {"local": cache_spec, "remote": args.cache_remote}
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        client_limit=args.client_limit,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        cache=cache_spec,
        trace_sample=args.trace_sample,
        events_path=args.events_log,
        sample_interval=args.sample_interval,
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


#: ``repro client`` subcommand -> the wire verb it sends.
_CLIENT_VERBS = {"compile": "compile", "tune": "autotune", "partition": "partition"}


def _client_work(client, args) -> int:
    """Send one work verb: every flag generated from the verb's row of
    ``protocol.PARAMS`` (see ``main``) becomes a param; unset ones are
    left to the server's defaults."""
    from .serve import protocol

    verb = _CLIENT_VERBS[args.client_command]
    params = {
        name: getattr(args, name)
        for name in protocol.PARAMS[verb]
        if name != "workload" and hasattr(args, name)
    }
    if getattr(args, "trace_out", None):
        return _client_compile_traced(client, args, params)
    out = client.work(verb, args.workload, **params)
    _CLIENT_PRINTERS[verb](out)
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

    The client lane comes from a local tracing collector around the RPC;
    the daemon lane rides back in the result's ``trace`` field; the store
    lane is derived from the server-side handling times the remote store
    echoed into the daemon's ``store.*`` spans.
    """
    import json

    from .obs.distributed import derive_store_stream, stitch, stream_from_report

    ctx = client.new_trace(sampled=True)
    with obs.collect(trace=True) as report:
        with obs.span(
            "client.request", workload=args.workload, trace_id=ctx.trace_id
        ):
            out = client.compile(args.workload, trace=ctx, **params)
    streams = [stream_from_report(report, "client", ctx)]
    daemon = out.get("trace")
    if daemon:
        streams.append(daemon)
        store = derive_store_stream(daemon)
        if store:
            streams.append(store)
    chrome = stitch(streams, trace_id=ctx.trace_id)
    with open(args.trace_out, "w", encoding="utf-8") as f:
        json.dump(chrome, f)
    other = chrome["otherData"]
    print(f"workload:     {out['workload']}")
    print(f"fingerprint:  {out['fingerprint']}")
    print(f"compile time: {out['compile_ms']:.1f} ms (server-side)")
    print(f"from cache:   {'yes' if out['from_cache'] else 'no'}")
    print(f"trace id:     {ctx.trace_id}")
    print(f"trace:        {other['spans']} spans across "
          f"{', '.join(other['services'])} -> {args.trace_out}")
    if not daemon:
        print("note: daemon returned no span payload (sampled out?)",
              file=sys.stderr)
    return 0


def _print_client_tune(out) -> None:
    print(f"workload:        {out['workload']}")
    print(f"searched:        {out['evaluations']} tilings "
          f"({out['failures']} infeasible) in {out['tuning_seconds']:.1f} s")
    print(f"best tile sizes: {tuple(out['best_tile_sizes'])} "
          f"({out['best_time_ms']:.3f} ms modeled)")


def _print_client_partition(out) -> None:
    mixed = out["modeled"]["mixed"]
    print(f"workload:    {out['workload']}")
    print(f"targets:     {', '.join(out['targets_used'])}"
          + (" (degenerate)" if out.get("degenerate") else ""))
    print("assignment:  "
          + ", ".join(f"{s}:{t}" for s, t in out["assignment"].items()))
    for part in out["partitions"]:
        print(f"  {part['name']} [{part['target']}] "
              f"{len(part['statements'])} stmts  {part['fingerprint'][:12]}")
    print(f"cuts:        {len(out['cuts'])}")
    print(f"modeled:     mixed {mixed['total_seconds'] * 1e6:.1f} us")
    for target, seconds in out["modeled"]["single"].items():
        text = "illegal" if seconds is None else f"{seconds * 1e6:.1f} us"
        print(f"             single {target:4s} {text}")
    print(f"server time: {out['compile_ms']:.1f} ms")
    print(f"deduped:     {'yes' if out.get('deduped') else 'no'}")


_CLIENT_PRINTERS = {
    "compile": _print_client_compile,
    "autotune": _print_client_tune,
    "partition": _print_client_partition,
}


def _client_stats(client, args) -> int:
    import json

    if getattr(args, "watch", False):
        return _client_stats_watch(client, args)
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


def _client_stats_watch(client, args) -> int:
    """Poll the server's metrics and print what changed between polls."""
    import time as _time

    prev = client.stats()
    print(f"watching {prev.get('schema')} every {args.interval:.1f}s "
          "(ctrl-c to stop)")
    frames = 0
    try:
        while args.count is None or frames < args.count:
            _time.sleep(args.interval)
            cur = client.stats()
            deltas = obs.diff_snapshots(prev, cur)
            text = obs.format_diff(deltas, only_changed=True)
            stamp = _time.strftime("%H:%M:%S")
            if text.strip():
                print(f"-- {stamp}")
                print(text)
            else:
                print(f"-- {stamp} (no change)")
            prev = cur
            frames += 1
    except KeyboardInterrupt:
        pass
    return 0


def _format_top_frame(sample, recent_events) -> str:
    """One ``repro top`` dashboard frame as text."""
    lines = []
    up = sample.get("uptime_seconds", 0.0)
    lines.append(
        f"repro top — up {up:7.1f}s   "
        f"requests {sample.get('requests_total', 0)}   "
        f"connections {sample.get('connections', 0)}"
    )
    lines.append(
        f"  req/s {sample.get('req_per_s', 0.0):7.2f}   "
        f"dedup {sample.get('dedup_rate', 0.0) * 100:5.1f}%   "
        f"active flights {sample.get('active_flights', 0)}   "
        f"inflight compiles {sample.get('inflight_compiles', 0)}"
    )
    lines.append(
        f"  compile p50 {sample.get('compile_p50_ms', 0.0):8.1f} ms   "
        f"p99 {sample.get('compile_p99_ms', 0.0):8.1f} ms   "
        f"errors {sample.get('compile_errors', 0)}   "
        f"cache hits {sample.get('cache_hits', 0)} "
        f"({sample.get('cache_decodes', 0)} decodes)"
    )
    extra = []
    if "flush_queue_depth" in sample:
        extra.append(f"flush queue {sample['flush_queue_depth']:.0f}")
    if sample.get("remote_down"):
        extra.append("REMOTE DOWN")
    if sample.get("events_dropped"):
        extra.append(f"events dropped {sample['events_dropped']}")
    if extra:
        lines.append("  " + "   ".join(extra))
    for tier, t in sorted(sample.get("tiers", {}).items()):
        lines.append(
            f"  tier {tier:<9} {t.get('hit_pct', 0.0):5.1f}% hit "
            f"({t.get('gets', 0)} gets)"
        )
    if recent_events:
        lines.append("  recent events:")
        for ev in recent_events[-5:]:
            lines.append(
                f"    [{ev.get('level', '?'):<5}] {ev.get('event', '?')}"
            )
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Live daemon telemetry off the ``watch`` verb."""
    import time as _time

    from .serve.client import ServeClient, ServeError

    socket_path, host, port = args.socket, args.host, args.port
    if socket_path is None and host is None:
        from .serve.server import default_socket_path

        socket_path = default_socket_path()
    try:
        with ServeClient(
            socket_path=socket_path, host=host, port=port, timeout=30.0
        ) as client:
            seq = 0
            frames = 0
            while True:
                reply = client.watch(since=seq)
                samples = reply.get("samples", [])
                if samples:
                    seq = samples[-1]["seq"]
                    frame = _format_top_frame(
                        samples[-1], reply.get("recent_events", [])
                    )
                    if not args.once:
                        # ANSI: home + clear-to-end, no full-screen buffer.
                        sys.stdout.write("\x1b[H\x1b[2J")
                    print(frame, flush=True)
                    frames += 1
                if args.once and frames:
                    return 0
                if args.frames is not None and frames >= args.frames:
                    return 0
                _time.sleep(args.interval or reply.get("interval", 1.0))
    except KeyboardInterrupt:
        return 0
    except ServeError as exc:
        print(f"server error ({exc.code}): {exc.message}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(f"cannot reach compile server: {exc}", file=sys.stderr)
        return 1


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


def cmd_client(args) -> int:
    from .serve.client import ServeClient, ServeError, wait_for_server

    socket_path, host, port = args.socket, args.host, args.port
    if socket_path is None and host is None:
        from .serve.server import default_socket_path

        socket_path = default_socket_path()
    handlers = {
        **dict.fromkeys(_CLIENT_VERBS, _client_work),
        "stats": _client_stats,
        "health": _client_health,
        "shutdown": _client_shutdown,
    }
    try:
        if args.wait:
            wait_for_server(
                socket_path=socket_path, host=host, port=port, timeout=args.wait
            )
        with ServeClient(
            socket_path=socket_path, host=host, port=port, timeout=args.timeout
        ) as client:
            return handlers[args.client_command](client, args)
    except ServeError as exc:
        print(f"server error ({exc.code}): {exc.message}", file=sys.stderr)
        return 1
    except (OSError, TimeoutError) as exc:
        print(f"cannot reach compile server: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Post-tiling fusion (MICRO 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(fn=cmd_list)

    cache_p = sub.add_parser(
        "cache", help="inspect, clear, garbage-collect or serve the compile cache"
    )
    cache_p.add_argument("action", choices=["info", "clear", "gc", "serve"])
    cache_p.add_argument(
        "--what",
        choices=["all", "results", "memos"],
        default="all",
        help="which store `clear` empties: compile results, spilled memo "
        "snapshots, or both (default)",
    )
    cache_p.add_argument(
        "--cache", default="default",
        help="cache to operate on: 'default', a named cache, a directory, "
        "or a tiered:<local>|<remote> fabric spec",
    )
    cache_p.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="`gc` byte budget, e.g. 500M or 2G (mtime-LRU eviction; "
        "default $REPRO_CACHE_MAX_BYTES)",
    )
    cache_p.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="`gc` TTL, e.g. 7d or 3600 (seconds; "
        "default $REPRO_CACHE_MAX_AGE)",
    )
    cache_p.add_argument("--dry-run", action="store_true",
                         help="`gc`: report what would be removed, remove nothing")
    cache_p.add_argument(
        "--dir", default=None,
        help="`serve`: directory to serve as the shared remote tier "
        "(default: the default cache dir)",
    )
    cache_p.add_argument("--host", default="127.0.0.1",
                         help="`serve`: bind address")
    cache_p.add_argument("--port", type=int, default=0,
                         help="`serve`: TCP port (0 picks a free one)")
    cache_p.add_argument(
        "--events-log", default=None, metavar="PATH",
        help="`serve`: append structured events (including per-request "
        "trace records) to this JSONL file",
    )
    cache_p.set_defaults(fn=cmd_cache)

    data_p = sub.add_parser(
        "data", help="inspect, export or clear the autotune candidate dataset"
    )
    data_p.add_argument("action", choices=["info", "export", "clear"])
    data_p.add_argument(
        "--dataset", default=None,
        help="dataset path (default <cache dir>/datasets/autotune.jsonl)",
    )
    data_p.add_argument(
        "-o", "--output", default=None,
        help="`export`: output file ('-' or omitted for stdout)",
    )
    data_p.add_argument("--limit", type=int, default=None,
                        help="`export`: cap the number of records")
    data_p.set_defaults(fn=cmd_data)

    learn_p = sub.add_parser(
        "learn", help="fit or inspect the tile-size ranking model"
    )
    learn_p.add_argument("action", choices=["fit", "info"])
    learn_p.add_argument(
        "--dataset", default=None,
        help="`fit`: dataset to train on (default: the default store)",
    )
    learn_p.add_argument(
        "-o", "--output", default=None,
        help="model pickle path (default $REPRO_AUTOTUNE_MODEL or "
        "<cache dir>/models/autotune-ranker.pkl)",
    )
    learn_p.add_argument(
        "--kind", choices=["stumps", "ridge"], default="stumps",
        help="`fit`: gradient-boosted stumps (default) or ridge regression",
    )
    learn_p.add_argument("--rounds", type=int, default=400,
                         help="`fit`: boosting rounds for stumps")
    learn_p.add_argument(
        "--min-rows", type=int, default=8,
        help="`fit`: rows a (program, target) needs for its own head; also "
        "the coverage below which pruned search falls back to exhaustive",
    )
    learn_p.set_defaults(fn=cmd_learn)

    stats_p = sub.add_parser(
        "stats", help="work with exported metric snapshots"
    )
    stats_sub = stats_p.add_subparsers(dest="stats_command", required=True)
    diff_p = stats_sub.add_parser(
        "diff", help="compare two repro-metrics/1 snapshots"
    )
    diff_p.add_argument("a", help="baseline snapshot (JSON)")
    diff_p.add_argument("b", help="current snapshot (JSON)")
    diff_p.add_argument(
        "--all",
        action="store_true",
        help="show unchanged metrics too",
    )
    diff_p.set_defaults(fn=cmd_stats)

    part_p = sub.add_parser(
        "partition",
        help="assign pipeline stages across cpu/gpu/npu and compile each "
        "partition for its target",
    )
    part_p.add_argument("workload")
    part_p.add_argument("--size", type=int, default=None)
    part_p.add_argument(
        "--targets", default="cpu,gpu,npu",
        help="comma-separated target set to partition over "
        "(default cpu,gpu,npu)",
    )
    part_p.add_argument("--no-cache", action="store_true",
                        help="compile partitions without the result cache")
    part_p.add_argument(
        "--stats", action="store_true",
        help="print per-pass timings and counters for the partition compile",
    )
    part_p.set_defaults(fn=cmd_partition)

    serve_p = sub.add_parser(
        "serve", help="run the long-lived compile server"
    )
    serve_p.add_argument(
        "--socket", default=None,
        help="unix socket path (default <cache dir>/serve.sock "
        "when no --host is given)",
    )
    serve_p.add_argument("--host", default=None, help="also listen on TCP")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; printed at startup)",
    )
    serve_p.add_argument("--workers", type=int, default=2,
                         help="compile worker threads")
    serve_p.add_argument(
        "--client-limit", type=int, default=8,
        help="max in-flight requests per connection",
    )
    serve_p.add_argument("--timeout", type=float, default=300.0,
                         help="per-request timeout in seconds")
    serve_p.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds to wait for in-flight work at shutdown")
    serve_p.add_argument(
        "--cache", default="default",
        help="compile cache: 'default', a named cache, a directory, or a "
        "tiered:<local>|<remote> fabric spec",
    )
    serve_p.add_argument(
        "--cache-remote", default=None, metavar="URL",
        help="shared remote cache tier (an http://host:port store server "
        "or a shared directory) layered over --cache",
    )
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without a result cache")
    serve_p.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="head-sampling probability for traced requests (0..1; "
        "sampled-out requests pay only the null-span fast path)",
    )
    serve_p.add_argument(
        "--events-log", default=None, metavar="PATH",
        help="append structured lifecycle events and per-request trace "
        "records to this JSONL file",
    )
    serve_p.add_argument(
        "--sample-interval", type=float, default=1.0, metavar="SECONDS",
        help="period of the telemetry ring sampler behind `repro top`",
    )
    serve_p.set_defaults(fn=cmd_serve)

    top_p = sub.add_parser(
        "top", help="live daemon telemetry dashboard (the `watch` verb)"
    )
    top_p.add_argument("--socket", default=None,
                       help="unix socket path of the server")
    top_p.add_argument("--host", default=None, help="server TCP host")
    top_p.add_argument("--port", type=int, default=None, help="server TCP port")
    top_p.add_argument(
        "--interval", type=float, default=None,
        help="refresh period (default: the server's sample interval)",
    )
    top_p.add_argument("--once", action="store_true",
                       help="print one frame and exit (CI-friendly)")
    top_p.add_argument("--frames", type=int, default=None,
                       help="exit after N frames")
    top_p.set_defaults(fn=cmd_top)

    client_p = sub.add_parser(
        "client", help="talk to a running compile server"
    )
    client_p.add_argument("--socket", default=None,
                          help="unix socket path of the server")
    client_p.add_argument("--host", default=None, help="server TCP host")
    client_p.add_argument("--port", type=int, default=None, help="server TCP port")
    client_p.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="wait up to SECONDS for the server to answer health first",
    )
    client_p.add_argument("--timeout", type=float, default=600.0,
                          help="socket timeout in seconds")
    client_sub = client_p.add_subparsers(dest="client_command", required=True)
    from .serve import protocol

    # One flag per param of the verb's row in ``protocol.PARAMS``, spelled
    # from the param's checker; ``--<param>`` unless renamed here, and
    # ``None`` for a param the CLI never offered.
    flag_kwargs = {
        protocol.POS_INT: {"type": int},
        protocol.POS_INTS: {"type": int, "nargs": "+"},
        protocol.STR: {},
        protocol.TARGET: {"choices": protocol.TARGETS},
        protocol.TARGET_LIST: {
            "type": _parse_targets,
            "help": "comma-separated target set (default cpu,gpu,npu)",
        },
    }
    flag_names = {"tile_sizes": "--tile", "dims": None}
    for command, verb in _CLIENT_VERBS.items():
        vp = client_sub.add_parser(command)
        vp.add_argument("workload")
        for name, (check, _default) in protocol.PARAMS[verb].items():
            flag = flag_names.get(name, "--" + name.replace("_", "-"))
            if flag and check in flag_kwargs:
                vp.add_argument(
                    flag, dest=name, default=None, **flag_kwargs[check]
                )
        if command == "compile":
            vp.add_argument(
                "--trace", dest="trace_out", nargs="?",
                const="stitched-trace.json", default=None, metavar="OUT.json",
                help="trace the request end to end and write one stitched "
                "Perfetto-loadable file (client + daemon + store lanes)",
            )
    stats_cp = client_sub.add_parser("stats")
    stats_cp.add_argument(
        "--json", action="store_true",
        help="emit the raw repro-metrics/1 snapshot",
    )
    stats_cp.add_argument(
        "--watch", action="store_true",
        help="poll the server and print metric deltas between polls",
    )
    stats_cp.add_argument("--interval", type=float, default=2.0,
                          help="`--watch` poll period in seconds")
    stats_cp.add_argument("--count", type=int, default=None,
                          help="`--watch`: stop after N polls")
    client_sub.add_parser("health")
    client_sub.add_parser("shutdown")
    client_p.set_defaults(fn=cmd_client)

    for name, fn in (
        ("optimize", cmd_optimize),
        ("code", cmd_code),
        ("time", cmd_time),
        ("tune", cmd_tune),
        ("trace", cmd_trace),
        ("profile", cmd_profile),
    ):
        p = sub.add_parser(name)
        if name == "trace":
            p.add_argument("workload", nargs="?", default=None)
        else:
            p.add_argument("workload")
        p.add_argument("--size", type=int, default=None)
        p.add_argument("--tile", type=int, nargs="+", default=None)
        p.add_argument("--target", choices=["cpu", "gpu", "npu"], default="cpu")
        if name == "optimize":
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
        if name == "trace":
            p.add_argument(
                "-o", "--output", default="trace.json",
                help="output file (default trace.json)",
            )
            p.add_argument(
                "--format",
                choices=["chrome", "jsonl"],
                default="chrome",
                help="chrome: Perfetto-loadable trace-event JSON; "
                "jsonl: one structured event per line",
            )
            p.add_argument(
                "--request", default=None, metavar="TRACE_ID",
                help="instead of compiling: stitch one distributed "
                "request's spans out of event logs (needs --log)",
            )
            p.add_argument(
                "--log", action="append", default=None, metavar="PATH",
                help="event-log JSONL file(s) to search for --request "
                "(repeatable; daemon and store logs alike)",
            )
        if name == "profile":
            p.add_argument("--top", type=int, default=8,
                           help="children shown per level")
            p.add_argument("--depth", type=int, default=6,
                           help="maximum tree depth shown")
            p.add_argument(
                "--critical-path", action="store_true",
                help="partition the workload, execute it, and print the "
                "measured vs. modeled critical path",
            )
            p.add_argument(
                "--targets", default="cpu,gpu,npu",
                help="`--critical-path`: comma-separated target set "
                "(default cpu,gpu,npu)",
            )
        if name in ("time", "tune"):
            p.add_argument("--threads", type=int, default=32)
        if name == "tune":
            p.add_argument("--candidates", type=int, nargs="+", default=None)
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="evaluate candidates in parallel over N workers",
            )
            p.add_argument(
                "--search", choices=["exhaustive", "pruned"],
                default="exhaustive",
                help="pruned: rank the grid with the learned model and "
                "exactly evaluate only the top-k",
            )
            p.add_argument(
                "--model", default=None,
                help="ranking model pickle for --search pruned "
                "(default $REPRO_AUTOTUNE_MODEL or the cache-dir model)",
            )
            p.add_argument("--top-k", type=int, default=None,
                           help="candidates to evaluate exactly when pruned")
            p.add_argument(
                "--collect", nargs="?", const="", default=None,
                metavar="PATH",
                help="append evaluated candidates to the dataset "
                "(bare --collect uses the default store)",
            )
        if name in ("optimize", "tune"):
            p.add_argument(
                "--no-cache",
                action="store_true",
                help="bypass the compile cache",
            )
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
