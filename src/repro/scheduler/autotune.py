"""Tile-size auto-tuning (the PolyMage strategy used for Table I).

The paper inherits PolyMage's auto-tuner: try every tile-size combination
from {8, 16, 32, 64, 128, 256, 512} per dimension and keep the fastest.
Because the paper's pass needs tile sizes only for the *live-out* spaces
(intermediate shapes are derived from the data space), the search space
stays two-dimensional regardless of pipeline depth — one of the
practical benefits Section III calls out ("reduce the magnitude of the
tile size space").

This tuner evaluates candidates against the analytical machine models,
which plays the role of PolyMage's empirical re-runs.  The search is
exhaustive: every in-range grid point is compiled (through the batch
driver + parametric specialization) and costed.  With a cache, each
candidate is first looked up with ``CompileCache.get_summary``: every
result entry starts with the machine model's answer for it, as a JSON
header in front of the pickled result, and a candidate the cache answers
that way is costed from the header alone.  A repeated sweep therefore
compiles, analyses and unpickles nothing; only the candidates the cache
cannot answer go to the batch driver, which compiles them on the caller's
thread, where they share one symbolic analysis through the memo tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir import Program

CANDIDATE_SIZES = (8, 16, 32, 64, 128, 256, 512)


@dataclass
class TuneResult:
    best_sizes: Tuple[int, ...]
    best_time: float
    evaluations: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    failures: Dict[Tuple[int, ...], str] = field(default_factory=dict)
    tuning_seconds: float = 0.0

    def top(self, k: int = 5) -> List[Tuple[Tuple[int, ...], float]]:
        """The k cheapest evaluated candidates; cost ties break on the
        tile-size tuple so the order is insertion-independent."""
        return sorted(self.evaluations.items(), key=lambda kv: (kv[1], kv[0]))[:k]

    @property
    def exact_evaluations(self) -> int:
        """How many candidates went through exact specialization (costed
        or failed compiling — skipped-by-bounds ones never did)."""
        return len(self.evaluations) + sum(
            1 for r in self.failures.values() if not r.startswith("skipped:")
        )


def liveout_extent_bounds(program: Program, dims: int) -> List[int]:
    """Per-dimension tile-size bounds from the live-out iteration extents.

    For each tile dimension the bound is the *minimum* extent across all
    live-out tensors (a tile must fit every live-out space it applies
    to); a live-out of lower rank contributes its maximal extent, which
    preserves the historical scalar derivation for 1-D outputs.
    """
    if not program.liveout:
        raise ValueError(f"program {program.name!r} has no live-out tensors")
    bounds: List[int] = []
    shapes = [
        program.tensors[name].concrete_shape(program.params)
        for name in program.liveout
    ]
    for d in range(dims):
        bounds.append(
            min(shape[d] if d < len(shape) else max(shape) for shape in shapes)
        )
    return bounds


def autotune_tile_sizes(
    program: Program,
    options=None,
    *,
    threads: int = 32,
    candidates: Sequence[int] = CANDIDATE_SIZES,
    dims: int = 2,
    max_extent: Optional[int] = None,
) -> TuneResult:
    """Search live-out tile sizes against the cost model.

    Candidate tile sizes are bounded per dimension by the *minimum*
    live-out extent in that dimension (out-of-range grid points are
    recorded in :attr:`TuneResult.failures` as skipped, never silently
    explored); an explicit ``max_extent`` applies one bound to every
    dimension instead.

    Candidates are evaluated through the batch-compile driver
    (:func:`repro.service.compile_batch`) on the caller's thread; an
    optional ``cache`` (a :class:`repro.service.CompileCache`) reuses
    compile results across candidates, runs and processes.

    A :class:`repro.CompileOptions` supplies ``target``/``startup``/
    ``cache`` in one validated bundle (its ``tile_sizes`` field is
    ignored — tile sizes are what is being searched).  ``None`` tunes for
    the cpu target.  The tuner-specific knobs (``threads``,
    ``candidates``, ``dims``, ``max_extent``) remain keyword arguments
    here: they configure the search, not the compiles.
    """
    from ..options import resolve_options

    opts = resolve_options(options)

    if max_extent is not None:
        bounds = [max_extent] * dims
    else:
        bounds = liveout_extent_bounds(program, dims)

    t0 = time.perf_counter()
    result = TuneResult(best_sizes=(), best_time=float("inf"))
    combos: List[Tuple[int, ...]] = []
    for sizes in _combinations(list(candidates), dims):
        over = next((d for d, s in enumerate(sizes) if s > bounds[d]), None)
        if over is None:
            combos.append(sizes)
        else:
            result.failures[sizes] = (
                f"skipped: tile size {sizes[over]} exceeds live-out "
                f"extent {bounds[over]} in dim {over}"
            )

    with obs.span("autotune", candidates=len(combos)):
        obs.count("autotune.requests")
        _evaluate(program, combos, threads, opts, result)
        obs.count("autotune.exact_evals", len(result.evaluations))

    result.tuning_seconds = time.perf_counter() - t0
    if not result.evaluations:
        raise RuntimeError(
            f"no feasible tile size among "
            f"{len(combos) + len(result.failures)} candidates: "
            f"{result.failures}"
        )
    return result


def _evaluate(
    program: Program,
    combos: Sequence[Tuple[int, ...]],
    threads: int,
    opts,
    result: TuneResult,
) -> None:
    """Exactly specialize and cost ``combos``, folding into ``result``.

    With a cache, a candidate whose entry carries its ``work_summary`` is
    costed from that summary alone (``CompileCache.get_summary``: no
    decode, no compile).  The rest are tagged as candidates, so the driver
    costs each where it compiles it and stores it with its summary;
    ``analyze_optimized`` below reads that on a miss and on a hit whose
    entry was stored uncosted (or raises again what the driver swallowed:
    same failure string).
    """
    from ..machine import analyze_optimized, cpu_time, gpu_time, reuse_summary
    from ..service.driver import CompileRequest, compile_batch

    spec = opts.target
    requests = [
        CompileRequest(
            program, target=spec, tile_sizes=sizes, startup=opts.startup,
            tag="autotune",
        )
        for sizes in combos
    ]
    summaries = {}
    if opts.cache is not None:
        for request in requests:
            summary = opts.cache.get_summary(request.fingerprint)
            if summary is not None:
                summaries[request.tile_sizes] = summary
    rest = [r for r in requests if r.tile_sizes not in summaries]
    outcomes = {}
    if rest:
        batch = compile_batch(rest, options=opts.replace(tile_sizes=None))
        outcomes = {o.request.tile_sizes: o for o in batch}
    for sizes in combos:
        if sizes not in summaries and outcomes[sizes].error is not None:
            # Infeasible tiling (tiny domains etc.).
            result.failures[sizes] = outcomes[sizes].error
            continue
        try:
            if sizes in summaries:
                work = reuse_summary(summaries[sizes])
            else:
                work = analyze_optimized(outcomes[sizes].result)
            t = (
                gpu_time(work)
                if spec.name == "gpu"
                else cpu_time(work, threads)
            )
        except Exception as exc:
            result.failures[sizes] = f"{type(exc).__name__}: {exc}"
            continue
        result.evaluations[sizes] = t
        # Cost ties break on the tile-size tuple, matching ``top()``: on a
        # sorted candidate grid this is the first-seen minimum.
        if (t, sizes) < (result.best_time, result.best_sizes or sizes):
            result.best_time = t
            result.best_sizes = sizes


def _combinations(candidates: Sequence[int], dims: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    for _ in range(dims):
        out = [prefix + (c,) for prefix in out for c in candidates]
    return out
