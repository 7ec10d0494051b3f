"""The options layer: one validated bundle per entry-point family.

``optimize``, ``cached_optimize``, ``compile_batch`` and
``autotune_tile_sizes`` historically each grew their own ``target=`` /
``tile_sizes=`` / ``mode=`` keyword spellings with slightly different
validation (or none).  :class:`CompileOptions` is the single configuration
path: construct it once, pass it everywhere, and every entry point sees the
same resolved :class:`~repro.core.tile_shapes.TargetSpec`, coerced tile-size
tuple and checked dispatch mode.  The per-keyword spellings are gone; a
caller that still passes one gets a ``TypeError`` naming the removed
keyword and pointing at ``CompileOptions``.

:class:`PartitionOptions` is the analogous bundle for the heterogeneous
partitioner (:func:`repro.partition.partition_pipeline`): an ordered set
of candidate targets plus the per-partition compile knobs and the
transfer-cost model used to price cut edges.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union


def _target_spec(target, rule: str):
    """A target name or ``TargetSpec`` as the spec; ``rule`` words the
    ``TypeError`` for anything else."""
    from .core.tile_shapes import TARGETS, TargetSpec

    if isinstance(target, str):
        if target not in TARGETS:
            raise ValueError(
                f"unknown target {target!r}; choose from {tuple(TARGETS)}"
            )
        return TARGETS[target]
    if not isinstance(target, TargetSpec):
        raise TypeError(f"{rule}, got {target!r}")
    return target


def _tile_sizes(tile_sizes) -> Optional[Tuple[int, ...]]:
    if tile_sizes is None:
        return None
    sizes = tuple(int(s) for s in tile_sizes)
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError(f"tile_sizes must be positive ints, got {tile_sizes!r}")
    return sizes


def _check_startup(startup) -> None:
    from .scheduler import HEURISTICS

    if startup not in HEURISTICS:
        raise ValueError(
            f"unknown startup heuristic {startup!r}; choose from {HEURISTICS}"
        )


@dataclass(frozen=True)
class CompileOptions:
    """Validated, immutable compile-time knobs.

    ``target`` accepts a target name (``"cpu"``/``"gpu"``/``"npu"``) or a
    :class:`~repro.core.tile_shapes.TargetSpec` and is normalized to the
    spec.  ``tile_sizes`` applies to the live-out spaces only and is
    coerced to a tuple of positive ints.  ``startup`` picks the start-up
    fusion heuristic.  ``mode``/``jobs``/``cache`` configure the batch
    driver: dispatch strategy, worker count and an optional
    :class:`~repro.service.CompileCache`.  ``cache`` also accepts a
    string, :class:`os.PathLike` or mapping: ``"default"`` for the
    process-wide cache, a bare name for a named cache under the default
    cache directory, a directory path, or a ``{"local": ...}`` mapping
    (all resolved via :func:`~repro.service.cache.resolve_cache`).
    """

    target: Union[str, object] = "cpu"
    tile_sizes: Optional[Sequence[int]] = None
    startup: str = "smartfuse"
    mode: str = "auto"
    jobs: Optional[int] = None
    cache: Optional[object] = None

    def __post_init__(self):
        from .service.driver import MODES

        object.__setattr__(
            self,
            "target",
            _target_spec(self.target, "target must be a target name or TargetSpec"),
        )
        object.__setattr__(self, "tile_sizes", _tile_sizes(self.tile_sizes))
        _check_startup(self.startup)
        if self.mode not in MODES:
            raise ValueError(
                f"unknown dispatch mode {self.mode!r}; choose from {MODES}"
            )
        if self.jobs is not None:
            jobs = int(self.jobs)
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
            object.__setattr__(self, "jobs", jobs)

        if isinstance(self.cache, (str, os.PathLike, Mapping)):
            from .service.cache import resolve_cache

            object.__setattr__(self, "cache", resolve_cache(self.cache))

    @property
    def target_name(self) -> str:
        return self.target.name

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class PartitionOptions:
    """Validated, immutable knobs for the heterogeneous partitioner.

    ``targets`` is the ordered set of candidate targets the beam search
    may assign stages to — names or
    :class:`~repro.core.tile_shapes.TargetSpec`\\ s, normalized to specs
    with duplicates dropped.  ``tile_sizes``/``startup``/``cache`` are the
    per-partition compile knobs (each partition compiles through the
    standard :func:`~repro.core.optimize` path with exactly these values,
    which is what makes the single-target case bit-identical to a plain
    compile).  ``threads`` feeds the CPU cost model, ``beam_width`` bounds
    the assignment search, and ``transfer`` is the
    :class:`~repro.machine.transfer.TransferSpec` pricing cut edges
    (``None`` selects the default interconnect model).
    """

    targets: Sequence[Union[str, object]] = ("cpu", "gpu", "npu")
    tile_sizes: Optional[Sequence[int]] = None
    startup: str = "smartfuse"
    threads: int = 32
    beam_width: int = 8
    transfer: Optional[object] = None
    cache: Optional[object] = None

    def __post_init__(self):
        from .core.tile_shapes import TargetSpec
        from .machine.transfer import DEFAULT_TRANSFER, TransferSpec

        if isinstance(self.targets, (str, TargetSpec)):
            targets = (self.targets,)
        else:
            targets = tuple(self.targets)
        specs = []
        for t in targets:
            t = _target_spec(t, "targets must be target names or TargetSpecs")
            if t not in specs:
                specs.append(t)
        if not specs:
            raise ValueError("targets must name at least one target")
        object.__setattr__(self, "targets", tuple(specs))
        object.__setattr__(self, "tile_sizes", _tile_sizes(self.tile_sizes))
        _check_startup(self.startup)
        threads = int(self.threads)
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads!r}")
        object.__setattr__(self, "threads", threads)
        beam = int(self.beam_width)
        if beam < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width!r}")
        object.__setattr__(self, "beam_width", beam)

        transfer = self.transfer if self.transfer is not None else DEFAULT_TRANSFER
        if not isinstance(transfer, TransferSpec):
            raise TypeError(
                f"transfer must be a TransferSpec or None, got {self.transfer!r}"
            )
        object.__setattr__(self, "transfer", transfer)

        if isinstance(self.cache, (str, os.PathLike, Mapping)):
            from .service.cache import resolve_cache

            object.__setattr__(self, "cache", resolve_cache(self.cache))

    @property
    def target_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.targets)

    def compile_options(self, target) -> CompileOptions:
        """The :class:`CompileOptions` one partition compiles with."""
        return CompileOptions(
            target=target,
            tile_sizes=self.tile_sizes,
            startup=self.startup,
            cache=self.cache,
        )

    def replace(self, **changes) -> "PartitionOptions":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)


def resolve_options(
    options: Optional[CompileOptions],
    entry: str = "this entry point",
    **removed,
) -> CompileOptions:
    """Normalize one entry point's ``options=`` argument.

    ``options`` must be a :class:`CompileOptions` or ``None`` (the
    defaults).  Entry points forward any unexpected keyword here as
    ``**removed`` so callers of the retired per-keyword configuration get
    a pointed migration error instead of a bare ``unexpected keyword``.
    """
    if removed:
        names = ", ".join(sorted(removed))
        raise TypeError(
            f"{entry}() no longer accepts per-keyword configuration "
            f"({names}); construct repro.CompileOptions(...) and pass it "
            f"as options="
        )
    if options is None:
        return CompileOptions()
    if not isinstance(options, CompileOptions):
        raise TypeError(
            f"options must be a repro.CompileOptions or None, "
            f"got {options!r}"
        )
    return options
