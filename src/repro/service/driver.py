"""Batch-compile driver: dedupe, cache, fan out, never kill the batch.

``compile_batch`` takes N :class:`CompileRequest`\\ s and returns N
:class:`CompileOutcome`\\ s in the same order.  Identical requests (same
content fingerprint) are compiled once; cached fingerprints are served
without compiling at all; the rest fan out over ``concurrent.futures``
(process pool by default, with thread and serial fallbacks).  A request
that fails records its error string in its outcome — one infeasible
tiling never aborts the other N-1.

Requests that *do* compile start warm when the cache has a spilled memo
snapshot for their program (keyed by program fingerprint): the snapshot is
loaded into the presburger memo tables before compiling — in the worker
process itself under the process pool — and the (now larger) hot set is
spilled back afterwards.  Compiles are byte-deterministic, so entries
produced by any process are interchangeable.

``cached_optimize`` is the single-request convenience wrapper the CLI
uses: a memoized drop-in for :func:`repro.core.optimize`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir import Program
from ..obs import distributed
from .. import obs
from .cache import CompileCache
from .fingerprint import fingerprint_program, fingerprint_request

#: Dispatch strategies for :func:`compile_batch`.
MODES = ("auto", "process", "thread", "serial")


def _memo_cache(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """The cache to spill memos through, or ``None`` when there is nowhere
    durable to spill to (no cache, or a memory-only one)."""
    if cache is None or not cache.persistent:
        return None
    return cache


def _memo_spec(cache: Optional[CompileCache]) -> Optional[str]:
    """A flat spec string a worker *process* rebuilds the memo cache
    from (see :attr:`CompileCache.spec`); ``None`` disables the worker's
    round-trip — also when the store has no cross-process spelling."""
    memo_cache = _memo_cache(cache)
    return None if memo_cache is None else memo_cache.spec


def load_program_memos(cache: CompileCache, program_fp: str) -> int:
    """Warm this process's memo tables from the spilled snapshot for one
    program; returns the number of entries installed."""
    from ..presburger import memo

    snap = cache.get_memos(program_fp)
    if not snap:
        return 0
    loaded = memo.load_snapshot(snap)
    if loaded:
        obs.count("driver.memo_entries_loaded", loaded)
        obs.count("driver.memo_warm_starts")
    return loaded


def spill_program_memos(cache: CompileCache, program_fp: str) -> None:
    """Spill the spillable memo tables back to disk under ``program_fp``."""
    from ..presburger import memo

    snap = memo.snapshot()
    if snap:
        cache.put_memos(program_fp, snap)
        obs.count("driver.memo_spills")


def _batch_program_fps(requests: Sequence["CompileRequest"]) -> List[str]:
    return list(dict.fromkeys(fingerprint_program(r.program) for r in requests))


def _load_batch_memos(requests, cache: Optional[CompileCache]) -> None:
    """Warm the process memo tables for every program in the batch with
    one batched snapshot fetch (one remote round trip on a tiered
    cache), instead of a ``get_memos`` each."""
    if cache is None or not requests:
        return
    from ..presburger import memo

    snaps = cache.get_memos_many(_batch_program_fps(requests))
    for snap in snaps.values():
        loaded = memo.load_snapshot(snap)
        if loaded:
            obs.count("driver.memo_entries_loaded", loaded)
            obs.count("driver.memo_warm_starts")


def _spill_batch_memos(requests, cache: Optional[CompileCache]) -> None:
    if cache is None or not requests:
        return
    for fp in _batch_program_fps(requests):
        spill_program_memos(cache, fp)


@dataclass
class CompileRequest:
    """One ``optimize()`` invocation, by value."""

    program: Program
    target: Union[str, object] = "cpu"
    tile_sizes: Optional[Tuple[int, ...]] = None
    startup: str = "smartfuse"
    tag: Optional[str] = None
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.tile_sizes is not None:
            self.tile_sizes = tuple(self.tile_sizes)

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = fingerprint_request(
                self.program, self.target, self.tile_sizes, self.startup
            )
        return self._fingerprint

    @property
    def is_candidate(self) -> bool:
        """Whether the autotuner sent this request: its result will be
        costed, and the tuner records it in the dataset itself."""
        return self.tag == "autotune"


@dataclass
class CompileOutcome:
    """What happened to one request: a result, a cache hit, or an error."""

    request: CompileRequest
    fingerprint: str
    result: Optional[object] = None
    error: Optional[str] = None
    from_cache: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_request(request: CompileRequest) -> Tuple[Optional[object], Optional[str]]:
    """Compile one request in-process; error strings match the serial
    autotuner's ``f"{type}: {exc}"`` format exactly.

    A sweep candidate is also costed here, wherever "here" runs (driver
    thread, pool thread or worker process), so the entry ``compile_batch``
    stores already carries its ``work_summary`` and no later hit analyses.
    """
    from ..core import optimize
    from ..options import CompileOptions

    try:
        result = optimize(
            request.program,
            CompileOptions(
                target=request.target,
                tile_sizes=request.tile_sizes,
                startup=request.startup,
            ),
        )
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if request.is_candidate:
        from ..machine import analyze_optimized

        try:
            analyze_optimized(result)
        except Exception:
            # The compile stands; the tuner's own call raises this again
            # and reports it against the candidate.
            pass
    return result, None


#: Per-worker-process memo cache, keyed by spec.  Pool workers handle
#: many tasks; rebuilding a (possibly tiered, thread-owning) cache per
#: task would leak flush threads and cold connections.
_worker_memo_cache: Optional[Tuple[str, CompileCache]] = None


def _worker_cache_for(memo_spec: str) -> CompileCache:
    global _worker_memo_cache
    if _worker_memo_cache is None or _worker_memo_cache[0] != memo_spec:
        from .cache import resolve_cache

        if _worker_memo_cache is not None:
            _worker_memo_cache[1].close()
        _worker_memo_cache = (memo_spec, resolve_cache(memo_spec))
    return _worker_memo_cache[1]


def _worker_body(request: CompileRequest, memo_spec: Optional[str]):
    """One worker's compile, including its memo warm-start round-trip."""
    if memo_spec is not None:
        cache = _worker_cache_for(memo_spec)
        program_fp = fingerprint_program(request.program)
        load_program_memos(cache, program_fp)
        result, error = _run_request(request)
        if error is None:
            spill_program_memos(cache, program_fp)
            cache.flush(timeout=2.0)
    else:
        result, error = _run_request(request)
    return result, error


def _worker(payload: bytes) -> bytes:
    """Process-pool entry point: pickled ``(request, memo_spec, observe,
    trace)`` in, pickled ``(result, error, report)`` out.  The worker is a
    fresh process with empty memo tables — exactly where the disk spill
    pays off — so it rebuilds the memo cache from its spec, loads its
    program's snapshot itself and spills the result back.

    Collector stacks are per-thread and per-process, so a worker's spans
    and counters would silently vanish; when the driver is being observed
    the worker collects its own :class:`~repro.obs.CompileReport` (with
    span events when the driver is tracing) and ships it back for merging.

    A distributed trace context rides along as its ``traceparent`` header
    form: the worker re-enters it (so its spans carry the trace id and
    any stores it touches propagate the ``X-Repro-Trace`` header) and
    exports it to :data:`repro.obs.distributed.ENV_VAR` for grandchild
    processes.
    """
    request, memo_spec, observe, trace, ctx_header = pickle.loads(payload)
    ctx = distributed.TraceContext.from_header(ctx_header)
    if ctx is not None:
        os.environ[distributed.ENV_VAR] = ctx.to_header()
    if observe:
        with distributed.use_context(ctx):
            with obs.collect(trace=trace) as report:
                attrs = {"fingerprint": request.fingerprint[:12]}
                if ctx is not None:
                    attrs["trace_id"] = ctx.trace_id
                    attrs["parent_span_id"] = ctx.span_id
                with obs.span("compile_worker", **attrs):
                    result, error = _worker_body(request, memo_spec)
    else:
        report = None
        result, error = _worker_body(request, memo_spec)
    return pickle.dumps((result, error, report))


def _default_workers(n_tasks: int) -> int:
    return max(1, min(n_tasks, os.cpu_count() or 1))


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a process pool down *now*, without waiting for its compiles.

    ``ProcessPoolExecutor.__exit__`` joins every worker, so a
    KeyboardInterrupt mid-batch would hang until the slowest compile
    finishes (or leak workers if the driver is killed).  Instead: cancel
    everything still queued, terminate the live worker processes, and
    reap them with a bounded join so no zombies linger.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in list(procs):
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in list(procs):
        try:
            proc.join(timeout=1.0)
        except Exception:
            pass


def _dispatch(
    requests: List[CompileRequest],
    mode: str,
    max_workers: Optional[int],
    cache: Optional[CompileCache] = None,
) -> List[Tuple[Optional[object], Optional[str]]]:
    """Compile ``requests`` (already deduplicated), preserving order.

    Worker spans and counters land in per-worker reports (collector
    stacks are thread- and process-local) which are merged back into the
    driver's active collectors here, so batch reports account for work
    done off the driver thread.
    """
    if mode not in MODES:
        raise ValueError(f"unknown dispatch mode {mode!r}; expected one of {MODES}")
    memo_cache = _memo_cache(cache)
    if mode == "serial" or len(requests) <= 1:
        # Serial runs on the driver thread where collectors already see
        # every span directly — no side report to merge.
        _load_batch_memos(requests, memo_cache)
        results = [_run_request(r) for r in requests]
        _spill_batch_memos(requests, memo_cache)
        return results

    observe, trace = obs.active(), obs.tracing()
    ctx = distributed.current_context()
    ctx_header = ctx.to_header() if ctx is not None else None
    workers = max_workers or _default_workers(len(requests))
    if mode in ("auto", "process"):
        try:
            memo_spec = _memo_spec(cache)
            payloads = [
                pickle.dumps((r, memo_spec, observe, trace, ctx_header))
                for r in requests
            ]
            t0 = time.perf_counter()
            pool = ProcessPoolExecutor(max_workers=workers)
        except Exception:
            if mode == "process":
                raise
            payloads = None
            # auto: an unpicklable program or a sandboxed interpreter
            # (no fork/semaphores) degrades to threads below.
        if payloads is not None:
            try:
                futures = [pool.submit(_worker, p) for p in payloads]
                raw = [f.result() for f in futures]
            except BaseException as exc:
                # A KeyboardInterrupt (or any dispatch failure) must not
                # wait on — or orphan — the in-flight workers.
                _abort_pool(pool)
                if mode == "process" or not isinstance(exc, Exception):
                    raise
                # auto + ordinary failure: degrade to threads below.
            else:
                pool.shutdown()
                results = []
                for b in raw:
                    result, error, report = pickle.loads(b)
                    if report is not None:
                        # Worker-process perf_counter epochs are not
                        # comparable to ours: rebase onto the dispatch start.
                        obs.merge_report(report, at=t0)
                        obs.count("driver.worker_reports_merged")
                    results.append((result, error))
                return results
    # Threads share the process-wide memo tables: load once, spill once.
    _load_batch_memos(requests, memo_cache)

    def _threaded(request: CompileRequest):
        if not observe:
            return _run_request(request) + (None,)
        # Worker threads have fresh thread-locals: re-enter the driver's
        # trace context so store hops under this compile stay linked.
        with distributed.use_context(ctx):
            with obs.collect(trace=trace) as report:
                attrs = {"fingerprint": request.fingerprint[:12]}
                if ctx is not None:
                    attrs["trace_id"] = ctx.trace_id
                    attrs["parent_span_id"] = ctx.span_id
                with obs.span("compile_worker", **attrs):
                    result, error = _run_request(request)
        return result, error, report

    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            triples = list(pool.map(_threaded, requests))
    except Exception:
        if mode == "thread":
            raise
        triples = [_run_request(r) + (None,) for r in requests]
    results = []
    for result, error, report in triples:
        if report is not None:
            # Same process, same clock: no rebase needed.
            obs.merge_report(report)
            obs.count("driver.worker_reports_merged")
        results.append((result, error))
    _spill_batch_memos(requests, memo_cache)
    return results


def compile_batch(
    requests: Sequence[CompileRequest],
    options=None,
    **removed,
) -> List[CompileOutcome]:
    """Compile many requests; one outcome per request, same order.

    Identical fingerprints are compiled once and the result fanned back
    out, each duplicate with its own ``fresh()`` tree.  With a cache,
    warm fingerprints skip compilation entirely and fresh results are
    stored for the next batch (or process).

    A :class:`repro.CompileOptions` supplies the driver knobs —
    ``mode``/``jobs``/``cache`` — in one validated bundle (``None`` uses
    the defaults: auto dispatch, cpu-count workers, no cache).  The
    retired per-keyword spellings raise a ``TypeError`` pointing at
    ``CompileOptions``.

    When ambient dataset collection is on (``$REPRO_DATASET``), each
    successful explicitly-tiled request also appends one candidate record
    to the autotune dataset (:mod:`repro.data`); requests the autotuner
    tagged record through the tuner instead.
    """
    from ..options import resolve_options

    opts = resolve_options(options, "compile_batch", **removed)
    mode, max_workers, cache = opts.mode, opts.jobs, opts.cache
    with obs.span("compile_batch", mode=mode, requests=len(requests)):
        outcomes: List[CompileOutcome] = [
            CompileOutcome(request=r, fingerprint=r.fingerprint) for r in requests
        ]

        # Dedupe: first request per fingerprint is the representative.
        unique: Dict[str, int] = {}
        for i, out in enumerate(outcomes):
            unique.setdefault(out.fingerprint, i)
        obs.count("driver.requests", len(outcomes))
        obs.count("driver.unique_requests", len(unique))

        # Warm fingerprints are served from the cache.
        cached: Dict[str, object] = {}
        if cache is not None:
            for fp in unique:
                hit = cache.get(fp)
                if hit is not None:
                    cached[fp] = hit
        to_compile = [
            outcomes[i].request for fp, i in unique.items() if fp not in cached
        ]

        t0 = time.perf_counter()
        compiled = dict(
            zip(
                (r.fingerprint for r in to_compile),
                _dispatch(to_compile, mode, max_workers, cache),
            )
        )
        elapsed = time.perf_counter() - t0

        for fp, (result, error) in compiled.items():
            if cache is not None and error is None:
                cache.put(fp, result)

        for i, out in enumerate(outcomes):
            if out.fingerprint in cached:
                out.result = cached[out.fingerprint]
                out.from_cache = True
            else:
                result, error = compiled[out.fingerprint]
                out.result, out.error = result, error
                out.seconds = elapsed / max(len(to_compile), 1)
            if i != unique[out.fingerprint] and hasattr(out.result, "fresh"):
                # Duplicates of one fingerprint each get their own tree.
                out.result = out.result.fresh()
        if cache is not None:
            obs.count("driver.cache_hits", len(cached))
        _collect_batch_records(outcomes)
    return outcomes


def _collect_batch_records(outcomes: Sequence[CompileOutcome]) -> None:
    """Append dataset records for a batch's tiled compiles (best effort).

    Only runs under ambient collection (``$REPRO_DATASET``); skips
    requests without explicit tile sizes (nothing to learn from), failed
    compiles, and requests the autotuner tagged (the tuner records those
    itself, with the sweep's exact threads and search context).
    """
    from ..data import collection_enabled, dataset_from_env, make_record

    if not collection_enabled():
        return
    try:
        from ..learn.features import ranking_features
        from ..machine import analyze_optimized, cpu_time, gpu_time, work_features

        records = []
        seen = set()
        for out in outcomes:
            r = out.request
            if (
                r.is_candidate
                or r.tile_sizes is None
                or not out.ok
                or out.result is None
                or out.fingerprint in seen
            ):
                continue
            seen.add(out.fingerprint)
            try:
                work = analyze_optimized(out.result)
                name = r.target if isinstance(r.target, str) else r.target.name
                cost = (
                    gpu_time(work) if name == "gpu" else cpu_time(work, 32)
                )
                records.append(
                    make_record(
                        fingerprint=fingerprint_program(r.program),
                        tile_sizes=r.tile_sizes,
                        cost=cost,
                        features=ranking_features(
                            r.program, r.tile_sizes, len(r.tile_sizes)
                        ),
                        program=r.program.name,
                        target=name,
                        startup=r.startup,
                        threads=32,
                        dims=len(r.tile_sizes),
                        work=work_features(work),
                        source="batch",
                    )
                )
            except Exception:
                continue
        if records:
            dataset = dataset_from_env()
            if dataset is not None:
                dataset.append(records)
    except Exception:
        # Collection must never fail a compile batch.
        pass


def cached_optimize(
    program: Program,
    options=None,
    **removed,
):
    """Memoized :func:`repro.core.optimize`.

    Uses the process-wide default cache when none is given; raises
    exactly what ``optimize`` would raise on failure.  Configuration is a
    :class:`repro.CompileOptions` (``target``/``tile_sizes``/``startup``/
    ``cache``), passed positionally or as ``options=``; the retired
    per-keyword spellings raise a ``TypeError`` pointing there.
    """
    from ..core import optimize
    from ..options import resolve_options
    from .cache import default_cache

    opts = resolve_options(options, "cached_optimize", **removed)
    cache = opts.cache if opts.cache is not None else default_cache()
    key = fingerprint_request(program, opts.target, opts.tile_sizes, opts.startup)
    result = cache.get(key)
    if result is None:
        memo_cache = _memo_cache(cache)
        program_fp = fingerprint_program(program) if memo_cache else None
        if memo_cache is not None:
            load_program_memos(memo_cache, program_fp)
        result = optimize(program, options=opts.replace(cache=None))
        cache.put(key, result)
        if memo_cache is not None:
            spill_program_memos(memo_cache, program_fp)
    return result
