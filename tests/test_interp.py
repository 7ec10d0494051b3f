"""Correctness of the executable backend.

Every schedule the system can produce must compute bit-identical live-out
tensors to the naive program-order execution — including the post-tiling
fused trees with their overlapped (recomputed) extension tiles.
"""

import numpy as np
import pytest

from repro import CompileOptions
from repro.codegen.interp import (
    build_streams,
    execute_naive,
    execute_tree,
    make_store,
    run_program,
)
from repro.baselines import heuristic_result
from repro.core import CPU, optimize
from repro.pipelines import conv2d
from repro.schedule import initial_tree
from repro.scheduler import (
    MAXFUSE,
    MINFUSE,
    SMARTFUSE,
    schedule_program,
)

PARAMS = {"H": 10, "W": 10, "KH": 3, "KW": 3}


def naive_result(prog, seed=0):
    store = make_store(prog, seed=seed)
    counts = execute_naive(prog, store)
    return store, counts


@pytest.fixture(scope="module")
def prog():
    return conv2d.build(PARAMS)


@pytest.fixture(scope="module")
def reference(prog):
    return naive_result(prog)


class TestInitialTree:
    def test_matches_naive(self, prog, reference):
        ref_store, ref_counts = reference
        store, counts = run_program(prog, initial_tree(prog))
        np.testing.assert_allclose(store["C"], ref_store["C"])
        assert counts == ref_counts


class TestHeuristicTrees:
    @pytest.mark.parametrize("heuristic", [MINFUSE, SMARTFUSE, MAXFUSE])
    def test_untiled_matches_naive(self, prog, reference, heuristic):
        ref_store, _ = reference
        sched = schedule_program(prog, heuristic)
        store, _ = run_program(prog, sched.tree)
        np.testing.assert_allclose(store["C"], ref_store["C"])

    @pytest.mark.parametrize("heuristic", [MINFUSE, SMARTFUSE])
    def test_tiled_matches_naive(self, prog, reference, heuristic):
        ref_store, _ = reference
        tree = heuristic_result(prog, heuristic, (4, 4), CPU).tree
        store, _ = run_program(prog, tree)
        np.testing.assert_allclose(store["C"], ref_store["C"])


class TestPostTilingFusion:
    def test_fused_tree_matches_naive(self, prog, reference):
        ref_store, _ = reference
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        store, _ = run_program(prog, result.tree)
        np.testing.assert_allclose(store["C"], ref_store["C"])

    def test_small_tiles_recompute_halo(self, prog):
        """With 2x2 tiles each tile reads a 4x4 halo of A, so fused S0
        executes more instances than its domain has points."""
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        _store, counts = run_program(prog, result.tree)
        domain_points = prog.statement("S0").domain.count_points(PARAMS)
        assert counts["S0"] > domain_points

    def test_dead_code_elimination(self):
        """S0 instances outside every tile footprint never execute: with
        KH = KW = 1 tiles read no halo, and the fused S0 runs exactly the
        instances the reduction needs — fewer than its full domain."""
        p = conv2d.build({"H": 8, "W": 8, "KH": 1, "KW": 1})
        result = optimize(p, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        _store, counts = run_program(p, result.tree)
        assert counts["S0"] == 64  # 8x8: KH=1 keeps footprint == output

    def test_gpu_target_matches_naive(self, prog, reference):
        ref_store, _ = reference
        result = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        store, _ = run_program(prog, result.tree)
        np.testing.assert_allclose(store["C"], ref_store["C"])

    @pytest.mark.parametrize("tiles", [(2, 2), (3, 3), (4, 2), (8, 8), (16, 16)])
    def test_many_tile_sizes(self, prog, reference, tiles):
        ref_store, _ = reference
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))
        store, _ = run_program(prog, result.tree)
        np.testing.assert_allclose(store["C"], ref_store["C"])


class TestStreams:
    def test_skipped_subtree_produces_no_stream(self, prog):
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        streams = build_streams(result.tree, prog, PARAMS)
        # S0 appears only through the extension path, not its original filter
        s0_streams = [s for s in streams if s.stmt.name == "S0"]
        assert len(s0_streams) == 1
        assert len(s0_streams[0].aug_dims) >= 2  # keyed by the tile dims

    def test_executed_counts_match_stream_enumeration(self, prog):
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        store = make_store(prog)
        counts = execute_tree(result.tree, prog, store)
        assert counts["S2"] == prog.statement("S2").domain.count_points(PARAMS)
        assert counts["S3"] == prog.statement("S3").domain.count_points(PARAMS)
