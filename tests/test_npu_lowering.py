"""Tests for GPU mapping and parametric tile sizes."""

from repro import CompileOptions
from repro.codegen import print_tree
from repro.codegen.gpu_mapping import map_to_gpu
from repro.core import TILE_TUPLE, optimize, tile_footprint, liveout_groups
from repro.pipelines import conv2d
from repro.scheduler import SMARTFUSE, schedule_program

PARAMS = {"H": 16, "W": 16, "KH": 3, "KW": 3}


class TestGPUMapping:
    def test_kernel_per_cluster(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        kernels = map_to_gpu(res)
        # one fused kernel for the whole pipeline + one skipped original
        live = [k for k in kernels if len(k.statements) > 1]
        assert len(live) == 1
        assert set(live[0].statements) == {"S1", "S2", "S3"}
        assert live[0].shared_tensors == ("A",)
        assert len(live[0].grid_dims) >= 1

    def test_sync_emitted_in_cuda(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        map_to_gpu(res)
        code = print_tree(res.tree, prog, style="cuda")
        assert "__syncthreads();" in code
        assert "__global__" in code

    def test_mapping_is_idempotent(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        k1 = map_to_gpu(res)
        k2 = map_to_gpu(res)
        assert [k.name for k in k1] == [k.name for k in k2]

    def test_execution_unaffected_by_marks(self):
        import numpy as np

        from repro.codegen import execute_naive, make_store, run_program

        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        map_to_gpu(res)
        ref = make_store(prog)
        execute_naive(prog, ref)
        store, _ = run_program(prog, res.tree)
        np.testing.assert_allclose(store["C"], ref["C"])


class TestParametricTileSizes:
    def test_symbolic_footprint_matches_concrete(self):
        """Relation (4) with symbolic T, fixed to T=2, must equal the
        footprint computed with the concrete size."""
        prog = conv2d.build({"H": 6, "W": 6, "KH": 3, "KW": 3})
        sched = schedule_program(prog, SMARTFUSE)
        L = liveout_groups(prog, sched.groups)[0]

        sym = tile_footprint(prog, L, ("T0", "T1"), ("A",))
        conc = tile_footprint(prog, L, (2, 2), ("A",))
        m_sym = sym[(TILE_TUPLE, "A")].fix_params(
            {"H": 6, "W": 6, "KH": 3, "KW": 3, "T0": 2, "T1": 2}
        )
        m_conc = conc[(TILE_TUPLE, "A")].fix_params(prog.params)
        origin = {f"{L.name}_o0": 2, f"{L.name}_o1": 0}
        assert (
            m_sym.image_of_point(origin).count_points()
            == m_conc.image_of_point(origin).count_points()
            == 16
        )

    def test_symbolic_size_appears_as_param(self):
        prog = conv2d.build({"H": 6, "W": 6})
        sched = schedule_program(prog, SMARTFUSE)
        L = liveout_groups(prog, sched.groups)[0]
        fp = tile_footprint(prog, L, ("T0", "T1"), ("A",))
        m = fp[(TILE_TUPLE, "A")]
        assert "T0" in m.space.params
        assert "T1" in m.space.params
