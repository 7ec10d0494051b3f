"""The redesigned ``repro.api`` surface: one importable stable module."""

import repro
import repro.api as api


def test_api_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_api_covers_downstream_consumers():
    """Every name benchmarks, the CLI and serve pull from the public
    surface is re-exported by ``repro.api``."""
    needed = {
        # compile path
        "CompileOptions", "OptimizeResult", "optimize",
        # service layer (benchmarks, serve worker functions)
        "CompileCache", "CompileOutcome", "CompileRequest",
        "cached_optimize", "compile_batch", "default_cache", "resolve_cache",
        # autotuning (CLI tune, bench_autotune)
        "TuneResult", "autotune_tile_sizes",
        # the target specs ``CompileOptions.target`` accepts
        "TARGETS", "TargetSpec",
        # workload registry (benchmarks' subprocess scripts, CLI)
        "default_tile_sizes", "get_workload", "workload_names",
        # IR construction
        "Program", "ProgramBuilder", "Tensor",
    }
    missing = needed - set(api.__all__)
    assert not missing, f"repro.api.__all__ is missing {sorted(missing)}"


def test_root_reexports_match_api():
    """The package root re-exports the high-traffic subset, same objects."""
    for name in ("CompileOptions", "Program", "ProgramBuilder", "optimize"):
        assert getattr(repro, name) is getattr(api, name), name


def test_get_workload_spelling():
    prog = api.get_workload("conv2d", 16)
    assert prog.name == "conv2d"
    assert "camera_resnet" in api.workload_names()
    assert "edge_infer" in api.workload_names()
