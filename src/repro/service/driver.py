"""Batch-compile driver: dedupe, cache, compile, never kill the batch.

``compile_batch`` takes N :class:`CompileRequest`\\ s and returns N
:class:`CompileOutcome`\\ s in the same order.  Identical requests (same
content fingerprint) are compiled once; cached fingerprints are served
without compiling at all; the rest run serially on the caller's thread,
where they share this process's memo tables (a sweep's candidates reuse
one symbolic analysis).  A request that fails records its error string in
its outcome — one infeasible tiling never aborts the other N-1.  A batch
reads its :class:`~repro.service.CompileCache` (the only cache
``CompileOptions`` holds) through ``get`` and stores through ``put``: it
runs in processes that already hold their memo tables (the daemon's
workers, a tuner's sweep), so it neither loads nor spills memo snapshots.

``cached_optimize`` is the single-request convenience wrapper the CLI
uses: a memoized drop-in for :func:`repro.core.optimize`.  It is the one
entry point that runs in a fresh process per compile, so on a miss it
warm-starts the memo tables from the snapshot the cache holds for the
program (keyed by program fingerprint), and spills its tables as that
snapshot when the store holds none yet: a stored snapshot is never
rewritten.  Compiles are byte-deterministic, so entries produced by any
process are interchangeable.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import optimize
from ..ir import Program
from ..options import CompileOptions, resolve_options
from .. import obs
from .cache import CompileCache, default_cache
from .fingerprint import fingerprint_program, fingerprint_request

#: Dispatch strategies for :func:`compile_batch`.
MODES = ("serial",)


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


@dataclass
class CompileRequest:
    """One ``optimize()`` invocation, by value."""

    program: Program
    target: Union[str, object] = "cpu"
    tile_sizes: Optional[Tuple[int, ...]] = None
    startup: str = "smartfuse"
    tag: Optional[str] = None

    def __post_init__(self):
        if self.tile_sizes is not None:
            self.tile_sizes = tuple(self.tile_sizes)

    @functools.cached_property
    def fingerprint(self) -> str:
        return fingerprint_request(
            self.program, self.target, self.tile_sizes, self.startup
        )

    @property
    def is_candidate(self) -> bool:
        """Whether the autotuner sent this request: its result will be
        costed."""
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

    A sweep candidate is also costed here, so the entry ``compile_batch``
    stores already carries its ``work_summary`` and no later hit analyses.
    """
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


def compile_batch(
    requests: Sequence[CompileRequest],
    options=None,
) -> List[CompileOutcome]:
    """Compile many requests; one outcome per request, same order.

    Identical fingerprints are compiled once and the result fanned back
    out: when a fingerprint has duplicates, every one of its outcomes
    (the first too) gets its own ``fresh()`` view of the batch's private
    result, which no caller holds, so rewriting one outcome's tree before
    another's is read never reaches the other.  With a cache,
    warm fingerprints skip compilation entirely and fresh results are
    stored for the next batch (or process).

    A :class:`repro.CompileOptions` supplies the driver knobs —
    ``mode``/``cache`` — in one validated bundle (``None`` uses the
    defaults: serial dispatch, no cache).
    """
    opts = resolve_options(options)
    cache = opts.cache
    with obs.span("compile_batch", mode=opts.mode, requests=len(requests)):
        outcomes: List[CompileOutcome] = [
            CompileOutcome(request=r, fingerprint=r.fingerprint) for r in requests
        ]

        # Dedupe: first request per fingerprint is the representative.
        unique: Dict[str, int] = {}
        shared = set()
        for i, out in enumerate(outcomes):
            if unique.setdefault(out.fingerprint, i) != i:
                shared.add(out.fingerprint)
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
        compiled = {r.fingerprint: _run_request(r) for r in to_compile}
        elapsed = time.perf_counter() - t0

        for fp, (result, error) in compiled.items():
            if cache is not None and error is None:
                cache.put(fp, result)

        for out in outcomes:
            if out.fingerprint in cached:
                out.result = cached[out.fingerprint]
                out.from_cache = True
            else:
                result, error = compiled[out.fingerprint]
                out.result, out.error = result, error
                out.seconds = elapsed / max(len(to_compile), 1)
            if out.fingerprint in shared and hasattr(out.result, "fresh"):
                # Each outcome of a duplicated fingerprint gets its own
                # view; the result they view stays the batch's.
                out.result = out.result.fresh()
        if cache is not None:
            obs.count("driver.cache_hits", len(cached))
    return outcomes


def cached_optimize(
    program: Program,
    options=None,
):
    """Memoized :func:`repro.core.optimize`.

    Uses the process-wide default cache when none is given; raises
    exactly what ``optimize`` would raise on failure.  Configuration is a
    :class:`repro.CompileOptions` (``target``/``tile_sizes``/``startup``/
    ``cache``), passed positionally or as ``options=``.
    """
    opts = resolve_options(options)
    cache = opts.cache if opts.cache is not None else default_cache()
    key = fingerprint_request(program, opts.target, opts.tile_sizes, opts.startup)
    result = cache.get(key)
    if result is None:
        # A memory-only cache has nowhere durable to spill to, and the
        # store skips a snapshot it already holds: pickle only the first.
        program_fp = fingerprint_program(program) if cache.persistent else None
        if program_fp is not None:
            load_program_memos(cache, program_fp)
        result = optimize(program, options=opts.replace(cache=None))
        cache.put(key, result)
        if program_fp is not None and not cache.store.contains("memos", program_fp):
            spill_program_memos(cache, program_fp)
    return result
