"""Tile-size auto-tuning (the PolyMage strategy used for Table I).

The paper inherits PolyMage's auto-tuner: try every tile-size combination
from {8, 16, 32, 64, 128, 256, 512} per dimension and keep the fastest.
Because the paper's pass needs tile sizes only for the *live-out* spaces
(intermediate shapes are derived from the data space), the search space
stays two-dimensional regardless of pipeline depth — one of the
practical benefits Section III calls out ("reduce the magnitude of the
tile size space").

This tuner evaluates candidates against the analytical machine models,
which plays the role of PolyMage's empirical re-runs.  Two search modes:

* ``"exhaustive"`` (default) — every in-range grid point is compiled
  (through the batch driver + parametric specialization) and costed;
* ``"pruned"`` — a learned ranker (:mod:`repro.learn`, fit on the
  :mod:`repro.data` candidate store) scores the whole grid from
  compile-free features and only the top-k candidates get exact
  specialization; the tuner falls back to the exhaustive sweep when no
  model is available or its coverage of this program is too thin.

Every evaluated candidate can be appended to the dataset (``collect=``,
or ambiently via ``$REPRO_DATASET``), so ordinary sweeps keep growing the
training set their own pruning feeds on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir import Program

CANDIDATE_SIZES = (8, 16, 32, 64, 128, 256, 512)

SEARCH_MODES = ("exhaustive", "pruned")

#: Denominator of the default top-k cut: rank the grid, keep 1/8th.
PRUNE_FRACTION = 8


@dataclass
class TuneResult:
    best_sizes: Tuple[int, ...]
    best_time: float
    evaluations: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    failures: Dict[Tuple[int, ...], str] = field(default_factory=dict)
    tuning_seconds: float = 0.0
    #: Which search produced the result: ``"exhaustive"``, or ``"pruned"``
    #: when the learned cut actually applied (a pruned *request* that
    #: fell back reads ``"exhaustive"`` with a :attr:`fallback_reason`).
    search: str = "exhaustive"
    #: Model scores for the ranked grid (pruned mode), candidate -> score.
    model_scores: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    #: Grid points the ranker cut before exact evaluation.
    pruned_out: int = 0
    #: Why a pruned request fell back to exhaustive (``None`` otherwise).
    fallback_reason: Optional[str] = None

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
    """Per-dimension tile-size bounds (re-exported from the featurizer —
    the tuner and the ranker must agree on extents)."""
    from ..learn.features import liveout_extent_bounds as _bounds

    return _bounds(program, dims)


def default_top_k(n_candidates: int) -> int:
    """The pruned mode's exact-evaluation budget for a grid of ``n``."""
    return max(2, n_candidates // PRUNE_FRACTION)


def autotune_tile_sizes(
    program: Program,
    options=None,
    *,
    threads: int = 32,
    candidates: Sequence[int] = CANDIDATE_SIZES,
    dims: int = 2,
    max_extent: Optional[int] = None,
    search: str = "exhaustive",
    model=None,
    top_k: Optional[int] = None,
    collect=None,
    **removed,
) -> TuneResult:
    """Search live-out tile sizes against the cost model.

    Candidate tile sizes are bounded per dimension by the *minimum*
    live-out extent in that dimension (out-of-range grid points are
    recorded in :attr:`TuneResult.failures` as skipped, never silently
    explored); an explicit ``max_extent`` applies one bound to every
    dimension instead.

    Candidates are evaluated through the batch-compile driver
    (:func:`repro.service.compile_batch`): ``mode`` picks the dispatch
    strategy (``"serial"`` by default, ``"auto"``/``"process"``/
    ``"thread"`` fan out over ``jobs`` workers) and an optional ``cache``
    (a :class:`repro.service.CompileCache`) reuses compile results across
    candidates, runs and processes.  The cost model is deterministic, so
    every mode returns bit-identical ``best_sizes``/``best_time``.

    ``search="pruned"`` ranks the grid with a learned model (``model``:
    a :class:`repro.learn.RankModel`, a pickle path, or ``None`` for the
    default ``$REPRO_AUTOTUNE_MODEL`` / cache-dir model) and runs exact
    specialization only on the ``top_k`` best-ranked candidates, falling
    back to the exhaustive sweep when the model is missing, stale or has
    coverage below its ``min_coverage`` for this program.

    ``collect`` appends one dataset record per evaluated candidate
    (:mod:`repro.data`): ``None`` defers to ``$REPRO_DATASET``, ``True``
    uses the default store, a path or :class:`~repro.data.Dataset`
    selects one explicitly, ``False`` disables collection.

    A :class:`repro.CompileOptions` supplies ``target``/``startup``/
    ``mode``/``jobs``/``cache`` in one validated bundle (its
    ``tile_sizes`` field is ignored — tile sizes are what is being
    searched).  ``None`` tunes for the cpu target with serial dispatch —
    a sweep's requests are tiny and fork cost dominates, so the
    no-options default stays ``"serial"`` rather than ``CompileOptions``'
    ``"auto"``.  The tuner-specific knobs (``threads``, ``candidates``,
    ``dims``, ``max_extent``, ``search``, ``model``, ``top_k``,
    ``collect``) remain keyword arguments here: they configure the
    search, not the compiles.  The retired per-keyword compile spellings
    raise a ``TypeError`` pointing at ``CompileOptions``.
    """
    from ..data import resolve_dataset
    from ..options import resolve_options

    if search not in SEARCH_MODES:
        raise ValueError(
            f"unknown search mode {search!r}; expected one of {SEARCH_MODES}"
        )

    opts = resolve_options(options, "autotune_tile_sizes", **removed)
    if options is None:
        opts = opts.replace(mode="serial")
    spec = opts.target

    if max_extent is not None:
        bounds = [max_extent] * dims
    else:
        bounds = liveout_extent_bounds(program, dims)

    try:
        dataset = resolve_dataset(collect)
    except (ValueError, OSError):
        dataset = None
    works: Optional[Dict[Tuple[int, ...], Dict[str, float]]] = (
        {} if dataset is not None else None
    )

    t0 = time.perf_counter()
    result = TuneResult(best_sizes=(), best_time=float("inf"), search=search)
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

    with obs.span("autotune", search=search, candidates=len(combos)):
        obs.count("autotune.requests")
        chosen = combos
        if search == "pruned":
            obs.count("autotune.pruned.requests")
            chosen = _rank_and_cut(
                program, combos, dims, threads, spec.name, bounds,
                model, top_k, result,
            )
            if result.fallback_reason is not None:
                obs.count("autotune.pruned.fallbacks")
                result.search = "exhaustive"
                chosen = combos
            else:
                result.pruned_out = len(combos) - len(chosen)
                obs.count("autotune.pruned.exact_evals", len(chosen))
                obs.count("autotune.pruned.pruned_out", result.pruned_out)

        _evaluate(program, chosen, threads, spec, opts, result, works)
        if (
            result.search == "pruned"
            and not result.evaluations
            and len(chosen) < len(combos)
        ):
            # Every ranked candidate was infeasible: rescue with the rest
            # of the grid rather than failing a search the exhaustive
            # sweep would have completed.
            obs.count("autotune.pruned.rescues")
            result.fallback_reason = "all top-k candidates infeasible"
            result.search = "exhaustive"
            result.pruned_out = 0
            kept = set(chosen)
            remaining = [c for c in combos if c not in kept]
            _evaluate(program, remaining, threads, spec, opts, result, works)
        obs.count("autotune.exact_evals", len(result.evaluations))

    result.tuning_seconds = time.perf_counter() - t0
    if not result.evaluations:
        raise RuntimeError(
            f"no feasible tile size among "
            f"{len(combos) + len(result.failures)} candidates: "
            f"{result.failures}"
        )
    if dataset is not None:
        _collect_records(
            dataset, program, result, threads, spec.name, opts.startup,
            dims, bounds, works or {},
        )
    return result


def _evaluate(
    program: Program,
    combos: Sequence[Tuple[int, ...]],
    threads: int,
    spec,
    opts,
    result: TuneResult,
    works: Optional[Dict[Tuple[int, ...], Dict[str, float]]] = None,
) -> None:
    """Exactly specialize and cost ``combos``, folding into ``result``.

    The requests are tagged as candidates, so the driver costs each where
    it compiles it and stores it with its ``work_summary``;
    ``analyze_optimized`` below reads that on a miss and on every later hit
    (or raises again what the driver swallowed: same failure string).

    When ``works`` is given (dataset collection is on), the cost-model
    internals of each analyzed schedule are captured alongside — the
    summary is in hand here, so this costs a few sums.
    """
    from ..machine import analyze_optimized, cpu_time, gpu_time, work_features
    from ..service.driver import CompileRequest, compile_batch

    if not combos:
        return
    requests = [
        CompileRequest(
            program, target=spec, tile_sizes=sizes, startup=opts.startup,
            tag="autotune",
        )
        for sizes in combos
    ]
    outcomes = compile_batch(requests, options=opts.replace(tile_sizes=None))
    for sizes, outcome in zip(combos, outcomes):
        if outcome.error is not None:
            # Infeasible tiling (tiny domains etc.).
            result.failures[sizes] = outcome.error
            continue
        try:
            work = analyze_optimized(outcome.result)
            t = (
                gpu_time(work)
                if spec.name == "gpu"
                else cpu_time(work, threads)
            )
        except Exception as exc:
            result.failures[sizes] = f"{type(exc).__name__}: {exc}"
            continue
        result.evaluations[sizes] = t
        if works is not None:
            works[sizes] = work_features(work)
        # Cost ties break on the tile-size tuple, matching ``top()`` — on
        # a sorted candidate grid this is the first-seen minimum, and it
        # keeps exhaustive and pruned sweeps agreeing when many tilings
        # share the optimal cost.
        if (t, sizes) < (result.best_time, result.best_sizes or sizes):
            result.best_time = t
            result.best_sizes = sizes


def _rank_and_cut(
    program: Program,
    combos: List[Tuple[int, ...]],
    dims: int,
    threads: int,
    target_name: str,
    bounds: Sequence[int],
    model,
    top_k: Optional[int],
    result: TuneResult,
) -> List[Tuple[int, ...]]:
    """Rank the grid with the model; returns the top-k cut, or flags a
    fallback on ``result`` (missing/stale model, thin coverage)."""
    from ..learn.model import RankModel, load_model
    from ..ir.fingerprint import fingerprint_program

    if not combos:
        result.fallback_reason = "empty candidate grid"
        return combos
    if not isinstance(model, RankModel):
        path = model if model is not None else None
        try:
            model = load_model(path)
        except FileNotFoundError:
            result.fallback_reason = "no model available"
            return combos
        except Exception as exc:
            result.fallback_reason = (
                f"model load failed: {type(exc).__name__}: {exc}"
            )
            return combos

    fp = fingerprint_program(program)
    rows = model.coverage(fp, target_name)
    if rows < model.min_coverage:
        result.fallback_reason = (
            f"coverage {rows} below min_coverage {model.min_coverage}"
        )
        return combos
    try:
        ranked = model.rank(
            program, combos, dims=dims, threads=threads,
            target=target_name, fingerprint=fp, bounds=bounds,
        )
    except Exception as exc:
        result.fallback_reason = f"ranking failed: {type(exc).__name__}: {exc}"
        return combos
    result.model_scores = {sizes: score for sizes, score in ranked}
    k = top_k if top_k is not None else default_top_k(len(combos))
    return [sizes for sizes, _ in ranked[: max(1, k)]]


def _collect_records(
    dataset,
    program: Program,
    result: TuneResult,
    threads: int,
    target_name: str,
    startup: str,
    dims: int,
    bounds: Sequence[int],
    works: Dict[Tuple[int, ...], Dict[str, float]],
) -> None:
    """Append one dataset record per exact evaluation (best effort)."""
    from ..data import make_record
    from ..learn.features import ranking_features
    from ..ir.fingerprint import fingerprint_program

    fp = fingerprint_program(program)
    records = [
        make_record(
            fingerprint=fp,
            tile_sizes=sizes,
            cost=cost,
            features=ranking_features(program, sizes, dims, threads, bounds),
            program=program.name,
            target=target_name,
            startup=startup,
            threads=threads,
            dims=dims,
            work=works.get(sizes),
            source="autotune",
        )
        for sizes, cost in result.evaluations.items()
    ]
    try:
        dataset.append(records)
    except (OSError, ValueError):
        pass


def _combinations(candidates: Sequence[int], dims: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    for _ in range(dims):
        out = [prefix + (c,) for prefix in out for c in candidates]
    return out
