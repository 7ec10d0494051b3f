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

import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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
    and ``mixed`` to every hit and a :meth:`fresh` view to each, whose
    tree is that hit's own.  :meth:`fresh` is the only sanctioned way to
    get another rewritable tree.

    ``work_summary`` holds the machine model's answer for this schedule at
    the program's own parameter values, as plain builtins (one dict per
    cluster); it is empty until :func:`repro.machine.analyze_optimized`
    first computes that and fills it *in place*.  The list is pickled with
    the result and is the same object on every :meth:`fresh` copy, so an
    answer computed on any copy, before or after the result was cached,
    reaches the cache's own instance and is never computed again; this
    layer never reads it.

    ``cost_policy`` names how the machine model costs this schedule:
    ``"exact"``, the paper's, for every result :func:`optimize` builds;
    :mod:`repro.baselines` sets the comparators' own.

    :meth:`fusion_summary` is derived once per result and kept in a
    holder that every :meth:`fresh` view shares, like ``work_summary``;
    unlike it, the holder is never pickled, so an entry's bytes do not
    depend on whether a summary was asked for.
    """

    program: Program
    target: TargetSpec
    tile_sizes: Optional[Tuple[int, ...]]
    scheduled: Scheduled
    mixed: MixedSchedules
    tree: DomainNode
    compile_seconds: float
    work_summary: List[dict] = field(default_factory=list)
    cost_policy: str = "exact"

    def __post_init__(self):
        self._fusion: list = []

    @property
    def clusters(self) -> List[List[FusionGroup]]:
        """Final fusion clusters: each tiling entry plus its extensions."""
        return self.mixed.fused_groups()

    def fresh(self) -> "OptimizeResult":
        """A result whose ``tree`` is an unshared copy: the schedule tree is
        the one part a consumer rewrites in place (``map_to_gpu``).

        The copy is made on read: the view shares every field with this
        result and copies this result's tree the first time its own
        ``.tree`` is read, so a caller that never reads it (a daemon reply
        reads ``tile_sizes`` and ``fusion_summary()``) copies nothing.
        The contract is that nothing rewrites *this* instance's tree once
        ``fresh()`` was called on it, or a view not yet read would copy
        the rewritten tree; the compile cache's own instance and
        ``compile_batch``'s private result keep it.  A view pickles as a
        plain result holding the tree it would copy, and copies nothing
        to do so."""
        return _FreshView.of(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_fusion", None)
        return state

    def __setstate__(self, state):
        # An entry pickled before ``work_summary`` existed loads as uncosted,
        # and one pickled before ``cost_policy`` existed is one of ours.
        self.__dict__.update(state)
        self.__dict__.setdefault("work_summary", [])
        self.__dict__.setdefault("cost_policy", "exact")
        self._fusion = []

    def fusion_summary(self) -> List[List[str]]:
        """Statement-level fusion result, e.g. ``[[S0, S1, S2, S3]]``: new
        lists on every call, built from the summary the first call kept."""
        if not self._fusion:
            index = self.program.statement_index
            self._fusion.append(tuple(
                tuple(sorted((s for g in cluster for s in g.statements), key=index))
                for cluster in self.clusters
            ))
        return [list(stmts) for stmts in self._fusion[0]]


class _FreshView(OptimizeResult):
    """:meth:`OptimizeResult.fresh`'s copy-on-read result.  ``__dict__``
    holds the source's fields minus ``tree`` until the first read, which
    copies ``_source_tree`` into it."""

    __slots__ = ("_source_tree",)

    @classmethod
    def of(cls, source: OptimizeResult) -> "_FreshView":
        view = cls.__new__(cls)
        view.__dict__.update(source.__dict__)
        if "tree" in view.__dict__:
            view._source_tree = view.__dict__.pop("tree")
        else:  # a view not yet read: share what it would copy
            view._source_tree = source._source_tree
        return view

    @property
    def tree(self) -> DomainNode:
        state = self.__dict__
        if "tree" not in state:
            state["tree"] = self._source_tree.copy()
        return state["tree"]

    @tree.setter
    def tree(self, value: DomainNode) -> None:
        self.__dict__["tree"] = value

    def __reduce_ex__(self, protocol):
        # Rebuilt by calling the class, the one kind of global a cache blob
        # may name, with the tree this view holds or would copy.
        state = dict(self.__dict__)
        state.setdefault("tree", self._source_tree)
        return OptimizeResult, tuple(state[f.name] for f in fields(OptimizeResult))


class SharedRef:
    """A cache entry's reference to its start-up half.

    A result entry pickles ``(program, scheduled.groups, scheduled.deps)``,
    the part every candidate of one program shares, once, and the rest of
    the result with each of those objects written as ``SharedRef(kind,
    index)``: ``("program", None)``; ``("groups", None)`` for the whole
    list and ``("groups", i)`` for its ``i``-th group, the same for
    ``"deps"``; ``("domains", i)`` for the domain of the program's
    ``i``-th statement.  Calling the class returns the referenced object
    of the start-up half installed by :meth:`resolving`, so a blob names
    no global but a class.  A reference outside :meth:`resolving`, of an
    unknown kind or out of range raises ``UnpicklingError``.
    """

    _installed = threading.local()

    def __new__(cls, kind, index=None):
        parts = getattr(cls._installed, "parts", None)
        if parts is not None and kind in parts:
            part = parts[kind]
            if index is None:
                return part
            if kind != "program" and type(index) is int and 0 <= index < len(part):
                return part[index]
        raise pickle.UnpicklingError(f"no shared {kind}[{index}] to refer to")

    @classmethod
    @contextmanager
    def resolving(cls, startup: tuple):
        """Resolve references against ``startup``, a decoded start-up half
        ``(program, groups, deps)``, on this thread while the block runs."""
        program, groups, deps = startup
        cls._installed.parts = {
            "program": program,
            "groups": groups,
            "deps": deps,
            "domains": [s.domain for s in program.statements],
        }
        try:
            yield
        finally:
            cls._installed.parts = None


def optimize(
    program: Program,
    options: "Optional[CompileOptions]" = None,
) -> OptimizeResult:
    """Run the paper's pass on ``program``.

    All configuration travels in one :class:`repro.CompileOptions` —
    passed positionally or as ``options=``; ``None`` compiles with the
    defaults (cpu target, smartfuse start-up, unit tiles).

    ``options.tile_sizes`` applies to the live-out computation spaces
    only — the pass derives every other space's tile shape from the
    upwards-exposed data, which is the point of the paper.
    ``options.target`` selects how much parallelism must be preserved
    ("cpu": 1 dim, "gpu": 2 dims, "npu").
    """
    from ..options import resolve_options

    opts = resolve_options(options)
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
    # Report the tile sizes the pass actually used, which differ from the
    # caller's request when sizes were omitted (unit-tile fusion).
    sizes = mixed.first_tile_sizes()
    return OptimizeResult(program, spec, sizes, scheduled, mixed, tree, elapsed)
