"""Tests for the baseline comparators (Halide/PolyMage/heuristics/naive),
each an ``OptimizeResult`` of ``repro.baselines.strategies``."""

import pytest

from repro import CompileOptions
from repro.baselines import polymage_overlap, strategies
from repro.baselines.manual import partitioned_result, scheduled_from_partition
from repro.core import CPU
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import equake, harris, polybench, unsharp_mask


class TestPartitionValidation:
    def test_rejects_incomplete_partition(self):
        prog = unsharp_mask.build(64)
        with pytest.raises(ValueError):
            scheduled_from_partition(prog, [["S0_blurx"]])

    def test_rejects_unknown_statement(self):
        prog = unsharp_mask.build(64)
        partition = [list(prog.statement_names), ["Szz"]]
        with pytest.raises(ValueError):
            scheduled_from_partition(prog, partition)


class TestScheduledFromPartition:
    def test_equake_partitions_build(self):
        prog = equake.build(n=128)
        results = strategies(prog, CompileOptions(tile_sizes=None))
        for name, partition in equake.PARTITIONS.items():
            assert len(results[name].mixed.tiling_entries()) == len(partition), name
            assert results[name].fusion_summary() == partition, name

    def test_group_attributes_computed(self):
        prog = equake.build(n=128)
        sched = scheduled_from_partition(prog, equake.PARTITIONS["maxfuse"])
        gather_group = sched.groups[1]
        assert "Sgather" in gather_group.statements
        assert gather_group.coincident[0]  # pointwise chain stays parallel


class TestPartitionedResult:
    def test_halide_partition_runs_through_machinery(self):
        prog = unsharp_mask.build(256)
        res = strategies(prog, CompileOptions(tile_sizes=(8, 32)))["halide"]
        # blur_x materialised on its own; the rest fused
        sizes = sorted(len(c) for c in res.clusters)
        assert sizes == [1, 3]

    def test_halide_work_costs_more_than_ours(self):
        prog = unsharp_mask.build(256)
        results = strategies(prog, CompileOptions(target="cpu", tile_sizes=(8, 32)))
        t_halide = cpu_time(analyze_optimized(results["halide"]), 32)
        t_ours = cpu_time(analyze_optimized(results["ours"]), 32)
        assert t_ours <= t_halide

    def test_polymage_overlap_never_cheaper_than_exact(self):
        prog = harris.build(256)
        exact = partitioned_result(prog, harris.polymage_partition(prog), (16, 32), CPU)
        w_poly = analyze_optimized(polymage_overlap(exact))
        w_exact = analyze_optimized(exact)
        assert w_poly.total_recompute() >= w_exact.total_recompute() - 1e-6
        assert exact.work_summary == w_exact.as_builtins()  # the copy's is its own


class TestStrategyMap:
    def test_every_strategy_the_program_has(self):
        prog = harris.build(64)
        results = strategies(prog, CompileOptions(tile_sizes=(8, 8)))
        assert list(results) == [
            "ours", "naive", "halide", "polymage",
            "minfuse", "smartfuse", "maxfuse", "hybridfuse",
        ]
        assert {name: r.cost_policy for name, r in results.items()} == {
            "ours": "exact", "naive": "serial", "halide": "exact",
            "polymage": "box_total", "minfuse": "per_group",
            "smartfuse": "per_group", "maxfuse": "per_group",
            "hybridfuse": "per_group",
        }

    @pytest.mark.parametrize(
        "prog", [polybench.BUILDERS["covariance"](32), equake.build(n=128)],
        ids=["covariance", "equake"],
    )
    def test_a_scheduler_that_refuses_maps_to_none(self, prog):
        results = strategies(prog, CompileOptions(tile_sizes=(8, 8)))
        assert results["hybridfuse"] is None
        assert "halide" not in results and "polymage" not in results
        assert all(r is not None for k, r in results.items() if k != "hybridfuse")


class TestNaive:
    def test_naive_is_serial_and_scalar(self):
        prog = unsharp_mask.build(128)
        naive = strategies(prog, CompileOptions(tile_sizes=(8, 32)))["naive"]
        assert not any(e.is_tiled for e in naive.mixed.tiling_entries())
        work = analyze_optimized(naive)
        for c in work.clusters:
            assert c.parallel_units == 1
            assert not c.vectorizable
        assert cpu_time(work, 32) == pytest.approx(cpu_time(work, 1))
