"""The end-to-end optimizer: the paper's pass, start to finish.

``optimize(program)`` runs:

1. a conservative start-up fusion heuristic (separated computation spaces,
   Section III);
2. Algorithm 3 / Algorithm 1 — tiling of live-out spaces and construction
   of extension schedules from upwards-exposed data;
3. Algorithm 2 — post-tiling fusion by schedule-tree rewriting.

The result carries everything downstream consumers need: the final tree
(for code generation and execution), the mixed schedules (for the machine
models' footprint analysis) and compile-time statistics (for the paper's
Table I/III compilation-time comparison).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..ir import Program
from ..ir.fingerprint import fingerprint_program
from ..schedule import DomainNode
from ..scheduler import (
    SMARTFUSE,
    FusionGroup,
    Scheduled,
    schedule_program,
)
from .. import obs
from .compose import composite_tiling_fusion
from .post_fusion import apply_mixed_schedules
from .tile_shapes import MixedSchedules, TargetSpec


@dataclass
class OptimizeResult:
    """Everything produced by one run of the pass.

    Immutable once built, like the :class:`Program` it holds, except for
    ``tree``: the compile cache hands the same ``program``, ``scheduled``
    and ``mixed`` to every hit and a :meth:`fresh` tree to each.
    :meth:`fresh` is the only sanctioned way to get another rewritable tree.

    ``work_summary`` holds the machine model's answer for this schedule at
    the program's own parameter values, as plain builtins (one dict per
    cluster); it is empty until :func:`repro.machine.analyze_optimized`
    first computes that and fills it *in place*.  The list is pickled with
    the result and is the same object on every :meth:`fresh` copy, so an
    answer computed on any copy, before or after the result was cached,
    reaches the cache's own instance and is never computed again; this
    layer never reads it.
    """

    program: Program
    target: TargetSpec
    tile_sizes: Optional[Tuple[int, ...]]
    scheduled: Scheduled
    mixed: MixedSchedules
    tree: DomainNode
    compile_seconds: float
    work_summary: List[dict] = field(default_factory=list)

    @property
    def clusters(self) -> List[List[FusionGroup]]:
        """Final fusion clusters: each tiling entry plus its extensions."""
        return self.mixed.fused_groups()

    def fresh(self) -> "OptimizeResult":
        """A result whose ``tree`` is an unshared copy: the schedule tree is
        the one part a consumer rewrites in place (``map_to_gpu``)."""
        return replace(self, tree=self.tree.copy())

    def __setstate__(self, state):
        # An entry pickled before ``work_summary`` existed loads as uncosted.
        self.__dict__.update(state)
        self.__dict__.setdefault("work_summary", [])

    def fusion_summary(self) -> List[List[str]]:
        """Statement-level fusion result, e.g. ``[[S0, S1, S2, S3]]``."""
        out = []
        for cluster in self.clusters:
            stmts: List[str] = []
            for g in cluster:
                stmts.extend(g.statements)
            out.append(sorted(stmts, key=self.program.statement_index))
        return out


def optimize(
    program: Program,
    options: "Optional[CompileOptions]" = None,
    **removed,
) -> OptimizeResult:
    """Run the paper's pass on ``program``.

    All configuration travels in one :class:`repro.CompileOptions` —
    passed positionally or as ``options=``; ``None`` compiles with the
    defaults (cpu target, smartfuse start-up, unit tiles).  The retired
    per-keyword spellings (``target=``/``tile_sizes=``/``startup=``)
    raise a ``TypeError`` pointing here.

    ``options.tile_sizes`` applies to the live-out computation spaces
    only — the pass derives every other space's tile shape from the
    upwards-exposed data, which is the point of the paper.
    ``options.target`` selects how much parallelism must be preserved
    ("cpu": 1 dim, "gpu": 2 dims, "npu").
    """
    from ..options import resolve_options

    opts = resolve_options(options, "optimize", **removed)
    spec = opts.target
    t0 = time.perf_counter()
    with obs.span(
        "optimize",
        target=spec.name,
        startup=opts.startup,
        statements=len(program.statements),
        tile_sizes=str(opts.tile_sizes) if opts.tile_sizes else "auto",
    ) as root:
        if root is not None and obs.tracing():
            # The fingerprint hash is only worth paying for in a trace.
            root.annotate(fingerprint=fingerprint_program(program)[:12])
        with obs.span("startup_fusion", heuristic=opts.startup):
            scheduled = schedule_program(program, opts.startup)
        with obs.span("tile_shapes"):
            mixed = composite_tiling_fusion(
                program, scheduled, opts.tile_sizes, spec
            )
        with obs.span("post_fusion"):
            tree = apply_mixed_schedules(program, scheduled, mixed)
    elapsed = time.perf_counter() - t0
    obs.gauge("optimize.compile_seconds", elapsed)
    # Report the tile sizes the pass actually used: the first tiled
    # live-out entry carries the effective (clipped or defaulted) vector,
    # which differs from the caller's request when sizes were omitted
    # (unit-tile fusion) or clipped to the band depth.
    sizes = next(
        (e.tile_sizes for e in mixed.tiling_entries() if e.tile_sizes is not None),
        None,
    )
    return OptimizeResult(program, spec, sizes, scheduled, mixed, tree, elapsed)
