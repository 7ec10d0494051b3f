"""Tests for the tile-size auto-tuner."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import CompileOptions
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import unsharp_mask
from repro.scheduler.autotune import (
    TuneResult,
    _combinations,
    autotune_tile_sizes,
    liveout_extent_bounds,
)
from repro.workloads import build_workload
from tests.test_determinism import ALL_WORKLOADS

#: The grid ``sweep_rows`` tunes over: 9 points per workload and target.
GOLDEN_GRID = (8, 16, 32)

#: What an exhaustive sweep answered at 1759c1d, the last commit with a
#: learned ranker beside it: ``(workload, target)`` -> the sha256[:16] of the
#: sorted-key JSON of its sorted ``evaluations`` and ``failures`` and its
#: ``best_sizes`` over ``GOLDEN_GRID``, serial and uncached, every
#: ``ALL_WORKLOADS`` entry at its size there.  ``sweep_rows`` computes them.
#: atax, bicg and mvt share rows: their grids cost the same.
AT_PARENT = {
    ("bilateral_grid", "cpu"): "8b0f219a68fb3b1e",
    ("bilateral_grid", "gpu"): "0eb963bbc1201d62",
    ("camera_pipeline", "cpu"): "36e6c1611da57aee",
    ("camera_pipeline", "gpu"): "2bb75ff55df16066",
    ("harris", "cpu"): "dd4f303813b3a70f",
    ("harris", "gpu"): "2cd1b297d93acfba",
    ("local_laplacian", "cpu"): "24a87b0dd17a2b9d",
    ("local_laplacian", "gpu"): "3f96b97108d7a5fd",
    ("multiscale_interp", "cpu"): "d70c9164dff01404",
    ("multiscale_interp", "gpu"): "d84e5dc260ac1549",
    ("unsharp_mask", "cpu"): "0bf583015d938f91",
    ("unsharp_mask", "gpu"): "4a161864e5fe3027",
    ("2mm", "cpu"): "5df183aa99bcd042",
    ("2mm", "gpu"): "7291e7944903bbfd",
    ("3mm", "cpu"): "1ecb9e3c6e5940a7",
    ("3mm", "gpu"): "ab9cd232d12a7efe",
    ("atax", "cpu"): "5de202f5ab1effe7",
    ("atax", "gpu"): "2071ea4bc1f4f50e",
    ("bicg", "cpu"): "cd8ef5184ba7b74e",
    ("bicg", "gpu"): "2071ea4bc1f4f50e",
    ("covariance", "cpu"): "d39bb5a2aa560e5e",
    ("covariance", "gpu"): "f3909627b2e637ea",
    ("doitgen", "cpu"): "0c20e870ee6029cb",
    ("doitgen", "gpu"): "3ed1616c965d0893",
    ("gemver", "cpu"): "2f373ef87d413fa9",
    ("gemver", "gpu"): "8a15fecc814b241d",
    ("mvt", "cpu"): "cd8ef5184ba7b74e",
    ("mvt", "gpu"): "2071ea4bc1f4f50e",
    ("conv2d", "cpu"): "646a3a5b4a517150",
    ("conv2d", "gpu"): "58c917a1c75d4e69",
}


def _sweep_digest(program, target):
    tuned = autotune_tile_sizes(
        program, CompileOptions(target=target, mode="serial"), candidates=GOLDEN_GRID
    )
    row = {
        "evaluations": sorted([list(s), t] for s, t in tuned.evaluations.items()),
        "failures": sorted([list(s), why] for s, why in tuned.failures.items()),
        "best_sizes": list(tuned.best_sizes),
    }
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


def sweep_rows():
    """``AT_PARENT`` as this checkout computes it."""
    rows = {}
    for name, size in ALL_WORKLOADS:
        program = build_workload(name, size)
        for target in ("cpu", "gpu"):
            rows[name, target] = _sweep_digest(program, target)
    return rows


class TestTheSweepIsTheParents:
    def test_in_process(self):
        assert sweep_rows() == AT_PARENT

    def test_in_a_fresh_process_under_another_hash_seed(self):
        child = (
            "import json; from tests.test_autotune import sweep_rows; "
            "print(json.dumps(list(sweep_rows().values())))"
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(
            os.environ, PYTHONHASHSEED="42",
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], cwd=root, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert dict(zip(AT_PARENT, json.loads(proc.stdout))) == AT_PARENT


class TestCombinations:
    def test_two_dims(self):
        combos = _combinations([8, 16], 2)
        assert set(combos) == {(8, 8), (8, 16), (16, 8), (16, 16)}

    def test_one_dim(self):
        assert _combinations([8, 16], 1) == [(8,), (16,)]


class TestAutotune:
    @pytest.fixture(scope="class")
    def tuned(self):
        prog = unsharp_mask.build(256)
        return prog, autotune_tile_sizes(prog, options=CompileOptions(target="cpu", mode="serial"), threads=32, candidates=(8, 32, 128))

    def test_search_covers_grid(self, tuned):
        _prog, result = tuned
        assert len(result.evaluations) + len(result.failures) == 9

    def test_best_is_minimum(self, tuned):
        _prog, result = tuned
        assert result.best_time == min(result.evaluations.values())
        assert result.evaluations[result.best_sizes] == result.best_time

    def test_best_sizes_usable(self, tuned):
        prog, result = tuned
        opt = optimize(prog, CompileOptions(target="cpu", tile_sizes=result.best_sizes))
        t = cpu_time(analyze_optimized(opt), 32)
        assert t == pytest.approx(result.best_time, rel=1e-6)

    def test_oversized_candidates_skipped(self):
        prog = unsharp_mask.build(64)
        result = autotune_tile_sizes(
            prog, candidates=(8, 512), max_extent=None
        )
        assert all(s <= 64 for sizes in result.evaluations for s in sizes)

    def test_top_k(self, tuned):
        _prog, result = tuned
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] <= top[1][1] <= top[2][1]


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_removed_per_keyword_configuration_rejected(cache_dir):
    """Every retired per-keyword spelling raises the pointed TypeError."""
    from repro.core import optimize
    from repro.service.driver import CompileRequest, cached_optimize, compile_batch

    prog = build_workload("mvt", 64)
    opts = CompileOptions(target="cpu")
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        autotune_tile_sizes(prog, target="cpu", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        autotune_tile_sizes(prog, mode="serial", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        optimize(prog, target="cpu", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        optimize(prog, tile_sizes=None, options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        cached_optimize(prog, startup="smartfuse", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        compile_batch([CompileRequest(prog)], mode="auto", options=opts)
    # the options spelling is the one path, defaults included
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
    assert result.tile_sizes == (8, 8)


@pytest.mark.parametrize("knob", ["search", "model", "top_k", "collect"])
def test_the_sweep_is_the_only_search(knob):
    with pytest.raises(TypeError, match=knob):
        autotune_tile_sizes(build_workload("mvt", 64), **{knob: None})


def test_tune_result_top_tie_break_is_insertion_independent():
    a = TuneResult(best_sizes=(4, 4), best_time=1.0)
    b = TuneResult(best_sizes=(4, 4), best_time=1.0)
    a.evaluations = {(8, 8): 2.0, (4, 4): 1.0, (2, 2): 1.0, (16, 16): 2.0}
    b.evaluations = {(16, 16): 2.0, (2, 2): 1.0, (4, 4): 1.0, (8, 8): 2.0}
    assert a.top(4) == b.top(4) == [
        ((2, 2), 1.0), ((4, 4), 1.0), ((8, 8), 2.0), ((16, 16), 2.0)
    ]


def test_per_dimension_bounds_from_minimum_liveout(cache_dir):
    """Out-of-range candidates are skipped and recorded, per dimension."""
    prog = build_workload("doitgen", 16)  # small live-out extents
    bounds = liveout_extent_bounds(prog, 2)
    r = autotune_tile_sizes(prog, candidates=(4, 8, 64, 512), dims=2)
    skipped = {s for s, msg in r.failures.items() if msg.startswith("skipped:")}
    for sizes in skipped:
        assert any(sizes[d] > bounds[d] for d in range(2))
    for sizes in r.evaluations:
        assert all(sizes[d] <= bounds[d] for d in range(2))
    assert skipped, "expected out-of-range candidates on a 16^3 workload"
    # every grid point is accounted for: evaluated, failed, or skipped
    assert len(r.evaluations) + len(r.failures) == 16
    # the best candidate respects the per-dimension bounds
    assert all(r.best_sizes[d] <= bounds[d] for d in range(2))


def test_liveout_extent_bounds_shapes():
    prog = build_workload("unsharp_mask", 128)
    b = liveout_extent_bounds(prog, 2)
    assert len(b) == 2 and all(x > 0 for x in b)
    # rank-1 live-outs fall back to their maximal extent (the historical
    # scalar derivation) instead of crashing on a missing dimension
    atax = build_workload("atax", 64)
    b2 = liveout_extent_bounds(atax, 2)
    assert len(b2) == 2 and all(x > 0 for x in b2)
