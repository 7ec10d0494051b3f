"""Tests for the analytical machine models and cost analyzer."""

import pytest

from repro import CompileOptions
from repro.baselines import strategies
from repro.machine import (
    ConvLayer,
    CPUSpec,
    DEFAULT_CPU,
    analyze_optimized,
    conv_bn_time,
    cpu_time,
    gpu_time,
    network_time,
)
from repro.machine.cpu import cluster_time as cpu_cluster_time
from repro.pipelines import conv2d
from repro.scheduler import MAXFUSE, MINFUSE, SMARTFUSE

PARAMS = {"H": 256, "W": 256, "KH": 3, "KW": 3}


@pytest.fixture(scope="module")
def prog():
    return conv2d.build(PARAMS)


@pytest.fixture(scope="module")
def works(prog):
    results = strategies(prog, CompileOptions(target="cpu", tile_sizes=(32, 32)))
    byh = {h: analyze_optimized(results[h]) for h in (MINFUSE, SMARTFUSE, MAXFUSE)}
    return analyze_optimized(results["ours"]), byh


class TestAnalyzer:
    def test_ours_single_cluster(self, works):
        ours, _ = works
        assert len(ours.clusters) == 1

    def test_recomputation_counted(self, works):
        ours, _ = works
        assert ours.total_recompute() > 0

    def test_minfuse_has_more_clusters(self, works):
        _, byh = works
        assert len(byh[MINFUSE].clusters) == 4
        assert len(byh[SMARTFUSE].clusters) == 2

    def test_fusion_reduces_dram_traffic(self, works):
        ours, byh = works
        assert ours.total_dram_bytes() < byh[SMARTFUSE].total_dram_bytes()
        assert byh[SMARTFUSE].total_dram_bytes() < byh[MINFUSE].total_dram_bytes()

    def test_maxfuse_loses_parallelism(self, works):
        _, byh = works
        assert all(c.n_parallel_dims == 0 for c in byh[MAXFUSE].clusters)

    def test_scratch_sized_to_footprint(self, works):
        ours, _ = works
        c = ours.clusters[0]
        # promoted A halo buffer: (32+2) x (32+2) doubles
        assert c.scratch_bytes_per_tile == 34 * 34 * 8


class TestCPUModel:
    def test_ordering_matches_paper(self, works):
        ours, byh = works
        t = {h: cpu_time(w, 32) for h, w in byh.items()}
        t["ours"] = cpu_time(ours, 32)
        assert t["ours"] < t[SMARTFUSE] < t[MINFUSE]
        assert t["ours"] < t[MAXFUSE]

    def test_parallel_scaling(self, works):
        ours, _ = works
        t1 = cpu_time(ours, 1)
        t32 = cpu_time(ours, 32)
        assert t32 < t1
        # memory-bound at scale: bandwidth saturation caps the speedup
        assert t1 / t32 > 2

    def test_maxfuse_does_not_scale(self, works):
        _, byh = works
        assert cpu_time(byh[MAXFUSE], 32) == pytest.approx(
            cpu_time(byh[MAXFUSE], 1)
        )

    def test_scratch_spill_penalty(self, works):
        ours, _ = works
        c = ours.clusters[0]
        tiny_cache = CPUSpec(scratch_capacity_bytes=64)
        assert cpu_cluster_time(c, 32, tiny_cache) > cpu_cluster_time(
            c, 32, DEFAULT_CPU
        )

    def test_more_threads_never_slower(self, works):
        ours, _ = works
        times = [cpu_time(ours, t) for t in (1, 4, 16, 32)]
        assert times == sorted(times, reverse=True)


class TestGPUModel:
    def test_fused_beats_unfused(self, works):
        ours, byh = works
        assert gpu_time(ours) < gpu_time(byh[MINFUSE])

    def test_maxfuse_collapses_on_gpu(self, works):
        ours, byh = works
        assert gpu_time(byh[MAXFUSE]) > 5 * gpu_time(ours)


class TestNPUModel:
    LAYER = ConvLayer("res2a", n=32, h=56, w=56, c_in=64, c_out=64, k=3)

    def test_fused_faster(self):
        fused = conv_bn_time(self.LAYER, fused=True)
        unfused = conv_bn_time(self.LAYER, fused=False)
        assert fused < unfused

    def test_fusion_speedup_band(self):
        """Per-pair speedup should land in the ballpark of the paper's
        1.72x for memory-bound layers."""
        fused = conv_bn_time(self.LAYER, fused=True)
        unfused = conv_bn_time(self.LAYER, fused=False)
        assert 1.2 < unfused / fused < 3.0

    def test_network_time_additive(self):
        layers = [self.LAYER] * 3
        assert network_time(layers, True) == pytest.approx(
            3 * conv_bn_time(self.LAYER, True)
        )
        assert network_time(layers, True, other_ops_seconds=1.0) > 1.0
