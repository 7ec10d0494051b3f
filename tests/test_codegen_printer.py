"""Tests for the OpenMP/CUDA printing backend and buffer promotion."""

import pytest

from repro import CompileOptions
from repro.codegen import print_tree, promoted_buffers
from repro.codegen.promotion import PromotedBuffer, _boxed
from repro.core import TILE_TUPLE, optimize
from repro.core.footprint import RepresentativeTile
from repro.pipelines import conv2d, unsharp_mask
from repro.presburger import BasicMap, Constraint, LinExpr, Map, MapSpace
from repro.scheduler import SMARTFUSE, schedule_program

PARAMS = {"H": 16, "W": 16, "KH": 3, "KW": 3}


@pytest.fixture(scope="module")
def result():
    return optimize(conv2d.build(PARAMS), CompileOptions(target="cpu", tile_sizes=(4, 4)))


class TestOpenMPPrinter:
    def test_untiled_tree_prints_loops(self):
        prog = conv2d.build(PARAMS)
        sched = schedule_program(prog, SMARTFUSE)
        code = print_tree(sched.tree, prog, style="openmp")
        assert "#pragma omp parallel for" in code
        assert "for (int" in code
        assert "S2(" in code

    def test_tiled_tree_has_tile_loops(self, result):
        code = print_tree(result.tree, result.program, style="openmp")
        assert "+= 4" in code  # tile loops step by the tile size
        assert "S0(" in code   # the fused quantisation appears inside

    def test_skipped_subtree_not_generated(self, result):
        code = print_tree(result.tree, result.program, style="openmp")
        assert "subtree skipped" in code
        # S0 appears exactly once (under the extension), not twice
        assert code.count("S0(") == 1

    def test_extension_comment_present(self, result):
        code = print_tree(result.tree, result.program, style="openmp")
        assert "extension: per-tile instances of S0" in code

    def test_parallel_pragma_on_outer_loop_only(self, result):
        code = print_tree(result.tree, result.program, style="openmp")
        assert code.count("#pragma omp parallel for") == 1

    def test_ceild_macro_defined(self, result):
        code = print_tree(result.tree, result.program, style="openmp")
        assert "#define ceild" in code


class TestCUDAPrinter:
    def test_block_thread_mapping(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
        code = print_tree(res.tree, prog, style="cuda")
        assert "blockIdx.x" in code
        assert "threadIdx" in code


class TestPromotion:
    def test_conv2d_promotes_quantised_input(self, result):
        buffers = promoted_buffers(result)
        assert len(buffers) == 1
        (bufs,) = buffers.values()
        names = [b.tensor for b in bufs]
        assert names == ["A"]
        # 4x4 tile reading a 3x3 stencil: (4+2) x (4+2) halo box
        assert bufs[0].box_shape == (6, 6)
        assert bufs[0].exact_elems == 36
        assert bufs[0].over_approximation == 1.0

    def test_total_scratch_bytes(self, result):
        (bufs,) = promoted_buffers(result).values()
        assert sum(b.box_elems for b in bufs) == 36

    def test_unsharp_promotes_blur_x(self):
        """blur_y/sharpen/masked form the live-out group (their values stay
        in registers/cache anyway); the fused blur_x stage's output gets a
        per-tile scratch buffer."""
        prog = unsharp_mask.build(64)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        (bufs,) = promoted_buffers(res).values()
        assert [b.tensor for b in bufs] == ["t_blurx"]
        assert bufs[0].exact_elems > 0

    def test_an_image_empty_at_the_tile_is_an_empty_buffer(self):
        """``{ _tile[o] -> A[a] : o >= 8 and o <= a <= o + 3 }``: the tile
        at 0 touches nothing, so its buffer holds nothing, as a missing
        relation's does; the tile at 8 holds four elements."""
        space = MapSpace(TILE_TUPLE, ("o",), "A", ("a",))
        o, a = LinExpr.var("o"), LinExpr.var("a")
        cons = [Constraint.ge(o, 8), Constraint.ge(a, o), Constraint.le(a, o + 3)]
        m = Map(space, [BasicMap(space, cons)])
        empty = PromotedBuffer("A", (0,), 0)
        assert _boxed("A", m, RepresentativeTile((4,), {}, {"o": 0}, {})) == empty
        assert _boxed("A", None, RepresentativeTile((4,), {}, {"o": 0}, {})) == empty
        assert empty.box_elems == 0
        held = _boxed("A", m, RepresentativeTile((4,), {}, {"o": 8}, {}))
        assert held == PromotedBuffer("A", (4,), 4)
