"""The stable public API surface, in one place.

Downstream code (benchmarks, notebooks, the CLI) should import from here —
or from the package root, which re-exports the same names — rather than
reaching into submodules whose layout may shift between releases:

    from repro.api import CompileOptions, optimize

    result = optimize(program, CompileOptions(target="gpu", tile_sizes=(32, 32)))
"""

from __future__ import annotations

from .core import OptimizeResult, optimize
from .core.tile_shapes import TARGETS, TargetSpec
from .ir import Program, ProgramBuilder, Tensor
from .options import CompileOptions
from .scheduler.autotune import TuneResult, autotune_tile_sizes
from .service.cache import CompileCache, default_cache, resolve_cache
from .service.driver import (
    CompileOutcome,
    CompileRequest,
    cached_optimize,
    compile_batch,
)
from .workloads import default_tile_sizes, get_workload, workload_names

__all__ = [
    "CompileCache",
    "CompileOptions",
    "CompileOutcome",
    "CompileRequest",
    "OptimizeResult",
    "Program",
    "ProgramBuilder",
    "TARGETS",
    "TargetSpec",
    "Tensor",
    "TuneResult",
    "autotune_tile_sizes",
    "cached_optimize",
    "compile_batch",
    "default_cache",
    "default_tile_sizes",
    "get_workload",
    "optimize",
    "resolve_cache",
    "workload_names",
]
