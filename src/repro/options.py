"""The options layer: one validated bundle for every compile entry point.

``optimize``, ``cached_optimize``, ``compile_batch`` and
``autotune_tile_sizes`` historically each grew their own ``target=`` /
``tile_sizes=`` / ``mode=`` keyword spellings with slightly different
validation (or none).  :class:`CompileOptions` is the single configuration
path: construct it once, pass it everywhere, and every entry point sees the
same resolved :class:`~repro.core.tile_shapes.TargetSpec`, coerced tile-size
tuple and checked dispatch mode (``"serial"``, the only one).  A ``cache``
is a :class:`~repro.service.CompileCache` once constructed: every other
spelling is resolved, or refused, by
:func:`~repro.service.cache.resolve_cache`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union


@dataclass(frozen=True)
class CompileOptions:
    """Validated, immutable compile-time knobs.

    ``target`` accepts a target name (``"cpu"``/``"gpu"``/``"npu"``) or a
    :class:`~repro.core.tile_shapes.TargetSpec` and is normalized to the
    spec.  ``tile_sizes`` applies to the live-out spaces only and is
    coerced to a tuple of positive ints.  ``startup`` picks the start-up
    fusion heuristic.  ``mode``/``cache`` configure the batch driver:
    dispatch strategy and an optional
    :class:`~repro.service.CompileCache`.  ``mode`` is ``"serial"``: a
    batch compiles on the caller's thread.  ``cache`` also accepts a
    string or :class:`os.PathLike`: ``"default"`` for the process-wide
    cache, a bare name for a named cache under the default cache
    directory, or a directory path (all resolved via
    :func:`~repro.service.cache.resolve_cache`).  Anything else is a
    :class:`TypeError`.
    """

    target: Union[str, object] = "cpu"
    tile_sizes: Optional[Sequence[int]] = None
    startup: str = "smartfuse"
    mode: str = "serial"
    cache: Optional[object] = None

    def __post_init__(self):
        from .core.tile_shapes import TARGETS, TargetSpec
        from .scheduler import HEURISTICS
        from .service.driver import MODES

        if isinstance(self.target, str):
            if self.target not in TARGETS:
                raise ValueError(
                    f"unknown target {self.target!r}; choose from {tuple(TARGETS)}"
                )
            object.__setattr__(self, "target", TARGETS[self.target])
        elif not isinstance(self.target, TargetSpec):
            raise TypeError(
                f"target must be a target name or TargetSpec, got {self.target!r}"
            )
        if self.tile_sizes is not None:
            sizes = tuple(int(s) for s in self.tile_sizes)
            if not sizes or any(s <= 0 for s in sizes):
                raise ValueError(
                    f"tile_sizes must be positive ints, got {self.tile_sizes!r}"
                )
            object.__setattr__(self, "tile_sizes", sizes)
        if self.startup not in HEURISTICS:
            raise ValueError(
                f"unknown startup heuristic {self.startup!r}; choose from {HEURISTICS}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown dispatch mode {self.mode!r}; choose from {MODES}"
            )
        if self.cache is not None:
            from .service.cache import resolve_cache

            object.__setattr__(self, "cache", resolve_cache(self.cache))

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)


def resolve_options(options: Optional[CompileOptions]) -> CompileOptions:
    """Normalize one entry point's ``options=`` argument: a
    :class:`CompileOptions`, or ``None`` for the defaults."""
    if options is None:
        return CompileOptions()
    if not isinstance(options, CompileOptions):
        raise TypeError(
            f"options must be a repro.CompileOptions or None, "
            f"got {options!r}"
        )
    return options
