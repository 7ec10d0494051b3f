"""The generated OpenMP C really compiles and computes the right answer.

These tests close the loop the paper's artifact closes with PPCG: the
schedule trees produced by the pass are turned into actual C, compiled
with gcc, executed, and compared bit-for-bit (modulo float association,
which the schedules preserve) against the interpreter and the naive
reference.
"""

import hashlib
import inspect
import itertools
import os
import random
import re
import shutil
import subprocess

import numpy as np
import pytest

from repro import CompileOptions
from repro.codegen import execute_naive, make_store, print_tree, promoted_buffers
from repro.codegen.cbackend import (
    CBackendError,
    HEADER,
    c_names,
    compile_and_run,
    compiler_available,
    generate_c,
    is_reserved,
)
from repro.codegen.promotion import entails, live_in_tensors, scratch_sites
from repro.core import optimize
from repro.ir import ProgramBuilder, TensorStore
from repro.pipelines import conv2d, polybench, unsharp_mask
from repro.presburger import Constraint, LinExpr
from repro.schedule import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    SequenceNode,
    initial_tree,
)
from repro.scheduler import SMARTFUSE, schedule_program
from repro.workloads import default_tile_sizes, get_workload

from .test_determinism import ALL_WORKLOADS

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on this machine"
)

PARAMS = {"H": 14, "W": 14, "KH": 3, "KW": 3}

#: (workload, size, tile sizes): small enough for the interpreter, tiles
#: clamped so that every program crosses tiles and recomputes halos.
#: bilateral_grid's 8x downsampling gives a buffer origin of T/8 when the
#: tile is a multiple of 8 and keeps the grid global when it is not.
SMALL = [
    ("harris", 32, (4, 8)),
    ("bilateral_grid", 32, (8, 16)),
    ("bilateral_grid", 32, (4, 4)),
    ("unsharp_mask", 32, (4, 8)),
    ("covariance", 48, (32, 32)),
    ("covariance", 20, (4, 8)),
    ("conv_bn", 32, (32, 32)),
    ("gemver", 24, (4, 8)),
    ("2mm", 24, (4, 8)),
    ("equake", 500, None),
]

#: sha256[:16] of ``print_tree`` at the parent commit (aaed83c) for the 15
#: benchmark workloads: this PR changes the C backend, not the printer.
PRINT_TREE_AT_PARENT = {
    "bilateral_grid": "e51ff3b3dbce8ca6",
    "camera_pipeline": "92176355761b1ac1",
    "harris": "ebe0183c733f2f64",
    "local_laplacian": "92114ccc06874e30",
    "multiscale_interp": "958db219e3cc43f1",
    "unsharp_mask": "002aa77fb670ca0d",
    "2mm": "05d16a47d91c7d8a",
    "3mm": "d1f4b29745f960f0",
    "atax": "7b8a2c63fbc5e962",
    "bicg": "c5be7611c838d7ea",
    "covariance": "afeef0bb701b9fc1",
    "doitgen": "9bbcf50e08cb358b",
    "gemver": "e502c8daa508deed",
    "mvt": "0fb049225fd8c97a",
    "conv2d": "a7af8797476fd422",
}

SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def fused(name, size, tiles=None):
    prog = get_workload(name, size)
    tiles = tiles or default_tile_sizes(name)
    return prog, optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))


def main_of(src):
    return src[src.index("int main(void)"):]


def scratch_shapes(src):
    """tensor -> shape of every thread-private buffer the source declares."""
    return {
        m.group(1): tuple(int(e) for e in re.findall(r"\[(\d+)\]", m.group(2)))
        for m in re.finditer(
            r"static double (\w+)((?:\[\d+\])+);\n#pragma omp threadprivate", src
        )
    }


def build_and_run(source, prog, workdir, flags):
    """What ``compile_and_run`` does, with the caller's gcc flags."""
    cc = shutil.which("gcc") or shutil.which("cc")
    with open(os.path.join(workdir, "kernel.c"), "w") as f:
        f.write(source)
    built = subprocess.run(
        [cc, *flags, "kernel.c", "-o", "kernel", "-lm"],
        cwd=workdir, capture_output=True, text=True,
    )
    assert built.returncode == 0, built.stderr
    store = make_store(prog)
    for name in live_in_tensors(prog):
        store[name].astype(np.float64).tofile(os.path.join(workdir, f"{name}.bin"))
    ran = subprocess.run(["./kernel"], cwd=workdir, capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr[-3000:]
    return {
        t: np.fromfile(os.path.join(workdir, f"{t}.out.bin")).reshape(
            prog.tensors[t].concrete_shape(prog.params)
        )
        for t in prog.liveout
    }


@pytest.fixture(scope="module")
def sanitizers(tmp_path_factory):
    """Skip unless this gcc can build and run with ASan + UBSan."""
    if not compiler_available():
        pytest.skip("no C compiler on this machine")
    workdir = tmp_path_factory.mktemp("san")
    (workdir / "probe.c").write_text("int main(void) { return 0; }\n")
    cc = shutil.which("gcc") or shutil.which("cc")
    built = subprocess.run(
        [cc, *SANITIZE, "-fopenmp", "probe.c", "-o", "probe"], cwd=workdir, capture_output=True
    )
    if built.returncode or subprocess.run(["./probe"], cwd=workdir).returncode:
        pytest.skip("sanitizers unsupported here")


def roundtrip(prog, tree):
    store = make_store(prog)
    got = compile_and_run(tree, prog, store, openmp=False)
    ref = make_store(prog)
    execute_naive(prog, ref)
    return got, ref


class TestSourceGeneration:
    def test_conv2d_source_structure(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        src = generate_c(res.tree, prog)
        assert "#pragma omp parallel for" in src
        assert "static double A[14][14];" in src
        assert "+=" in src  # the reduction
        assert src.count("for (long") >= 6

    def test_all_liveouts_written(self):
        prog = polybench.build_gemver(8)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        src = generate_c(res.tree, prog)
        assert 'write_tensor("x1.out.bin"' in src
        assert 'write_tensor("w.out.bin"' in src


@needs_cc
class TestCompileAndRun:
    def test_initial_tree_conv2d(self):
        prog = conv2d.build(PARAMS)
        got, ref = roundtrip(prog, initial_tree(prog))
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_smartfuse_tree(self):
        prog = conv2d.build(PARAMS)
        sched = schedule_program(prog, SMARTFUSE)
        got, ref = roundtrip(prog, sched.tree)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_post_tiling_fused_tree(self):
        """The headline: Fig. 5's fused/tiled/extended tree as real C."""
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        got, ref = roundtrip(prog, res.tree)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_unsharp_mask_fused(self):
        prog = unsharp_mask.build(24)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 8)))
        got, ref = roundtrip(prog, res.tree)
        out = prog.liveout[0]
        np.testing.assert_allclose(got[out], ref[out], rtol=1e-12)

    def test_gemver_multi_liveout(self):
        prog = polybench.build_gemver(10)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        got, ref = roundtrip(prog, res.tree)
        np.testing.assert_allclose(got["x1"], ref["x1"], rtol=1e-12)
        np.testing.assert_allclose(got["w"], ref["w"], rtol=1e-12)

    def test_openmp_build_also_correct(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        store = make_store(prog)
        got = compile_and_run(res.tree, prog, store, openmp=True)
        ref = make_store(prog)
        execute_naive(prog, ref)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)


    @pytest.mark.parametrize("openmp", [False, True], ids=["serial", "openmp"])
    @pytest.mark.parametrize("name,size,tiles", SMALL)
    def test_fused_equals_naive(self, name, size, tiles, openmp):
        """Scratch buffers, elided guards and skipped reads change nothing
        observable; under OpenMP every thread has its own buffers."""
        prog, res = fused(name, size, tiles)
        got = compile_and_run(res.tree, prog, make_store(prog), openmp=openmp)
        ref = make_store(prog)
        execute_naive(prog, ref)
        for t in prog.liveout:
            np.testing.assert_allclose(got[t], ref[t], rtol=1e-12)

    @pytest.mark.parametrize("openmp", [False, True], ids=["serial", "openmp"])
    @pytest.mark.parametrize("name,size,tiles", SMALL)
    def test_fused_under_sanitizers(self, name, size, tiles, openmp, sanitizers, tmp_path):
        """An off-by-one scratch index must abort, not read a neighbour:
        UBSan checks every dimension of every static array."""
        prog, res = fused(name, size, tiles)
        flags = SANITIZE + (["-fopenmp"] if openmp else [])
        got = build_and_run(generate_c(res.tree, prog), prog, str(tmp_path), flags)
        ref = make_store(prog)
        execute_naive(prog, ref)
        for t in prog.liveout:
            np.testing.assert_allclose(got[t], ref[t], rtol=1e-12)

    def test_reserved_names_cover_the_headers(self, tmp_path):
        """Every file-scope identifier the emitted headers declare here is
        one a tensor would be renamed away from."""
        (tmp_path / "h.c").write_text(HEADER)
        cc = shutil.which("gcc") or shutil.which("cc")
        text = subprocess.run(
            [cc, "-fopenmp", "-E", "h.c"], cwd=tmp_path, capture_output=True, text=True
        ).stdout
        text = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        declared = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", text))
        declared |= set(re.findall(r"typedef[^;{]*?\b([A-Za-z_]\w*)\s*;", text))
        declared |= set(re.findall(r"extern\s+[^;(]*?\b([A-Za-z_]\w*)\s*;", text))
        assert len(declared) > 300
        assert sorted(n for n in declared if not is_reserved(n)) == []


class TestEmittedStructure:
    """What the source must look like, compiler or not."""

    @pytest.mark.parametrize("name,size", [("2mm", 256), ("harris", 1024)])
    def test_rectangular_nests_carry_no_guard(self, name, size):
        prog, res = fused(name, size)
        for tree in (res.tree, initial_tree(prog)):
            assert "if (" not in main_of(generate_c(tree, prog))

    def test_full_tiles_have_constant_trip_counts(self):
        """256 = 8 * 32: ``T <= 255`` and ``T = 32q`` give ``T <= 224``, so
        ``min(255, T + 31)`` is ``T + 31``."""
        prog, res = fused("2mm", 256, (32, 32))
        loops = re.findall(r"for \(long (\w+_p) = (.*?); \1 <= (.*?); ", generate_c(res.tree, prog))
        assert loops
        for var, lo, hi in loops:
            assert "min(" not in hi and "max(" not in lo, (var, lo, hi)

    def test_promoted_tensor_is_only_a_tile_buffer(self):
        prog, res = fused("harris", 1024)
        src = generate_c(res.tree, prog)
        assert "static double t_gray[36][260];\n#pragma omp threadprivate(t_gray)" in src
        assert "t_gray[1024]" not in src
        assert 'read_tensor("t_gray.bin"' not in src
        assert "t_gray[-c1_G5_t0_T + c3_G0x_t0][-c2_G5_t1_T + c4_G0x_t1] =" in src
        # S8..S10 share the live-out band: not an extension's, so global
        assert "static double t_Sxy[1020][1020];" in src

    @pytest.mark.parametrize("name,size", [("harris", 1024), ("unsharp_mask", 1024), ("bilateral_grid", 1024)])
    def test_buffer_shapes_are_the_models(self, name, size):
        """The box over all tiles equals the cost model's box at its
        representative interior tile."""
        prog, res = fused(name, size)
        emitted = scratch_shapes(generate_c(res.tree, prog))
        modelled = {
            b.tensor: b.box_shape for bufs in promoted_buffers(res).values() for b in bufs
        }
        assert emitted == modelled

    @pytest.mark.parametrize("name,size", [("harris", 64), ("conv2d", 48), ("camera_pipeline", 128), ("covariance", 48)])
    def test_model_and_backend_consider_the_same_tensors(self, name, size):
        """``promoted_buffers`` prices every tensor an extension writes; the
        backend's legality walk sorts exactly those into sites and kept."""
        prog, res = fused(name, size)
        sites, kept = scratch_sites(res.tree, prog, live_in_tensors(prog))
        modelled = {b.tensor for bufs in promoted_buffers(res).values() for b in bufs}
        assert modelled == set(sites) | set(kept)

    def test_empty_tensor_is_refused(self):
        """A pyramid level of extent 0: the backend's own error, not a
        ValueError from somewhere inside it."""
        prog, res = fused("multiscale_interp", 64)
        with pytest.raises(CBackendError, match="cannot allocate"):
            generate_c(res.tree, prog)

    def test_non_unit_scaling_origin(self):
        """Tile 8 over an 8x downsampled grid: the origin is T/8 - 0."""
        prog, res = fused("bilateral_grid", 64, (8, 16))
        src = generate_c(res.tree, prog)
        assert scratch_shapes(src)["t_grid"] == (4, 5)
        assert re.search(r"t_grid\[[^\]]*\(c1_G4_t0_T / 8\)", src)

    def test_union_bounds_and_needed_guards(self):
        """Two statements with different ranges in one loop: the loop spans
        the union, the wider statement is unguarded and the narrower keeps
        precisely its two bounds."""
        b = ProgramBuilder("two_ranges")
        X, Y, Z = b.tensor("X", (10,)), b.tensor("Y", (10,)), b.tensor("Z", (10,))
        (i,) = b.iters("i")
        b.assign("S0", [i], "0 <= i <= 9", Y[i], X[i] * 2.0)
        b.assign("S1", [i], "3 <= i <= 5", Z[i], X[i] + 1.0)
        prog = b.set_liveout("Y", "Z").build()
        row = LinExpr.var("i")
        tree = DomainNode(
            prog.domains(),
            BandNode(
                {"S0": [row], "S1": [row]}, ["t"],
                child=SequenceNode([FilterNode(["S0"], LeafNode()), FilterNode(["S1"], LeafNode())]),
            ),
        )
        body = main_of(generate_c(tree, prog))
        var = re.search(r"for \(long (\w+) = 0; \1 <= 9; \1\+\+\)", body).group(1)
        assert f"  Y[{var}] = " in body
        assert f"if (({var} - 3) >= 0 && (-{var} + 5) >= 0) Z[{var}] = " in body
        assert body.count("if (") == 1

    def test_overlapping_pieces_run_once(self):
        """covariance's extension of ``mean`` has two overlapping pieces
        (the tile's rows and its columns): the second is emitted minus the
        first, so on a diagonal tile no column is accumulated twice."""
        prog, res = fused("covariance", 48, (32, 32))
        body = main_of(generate_c(res.tree, prog))
        accumulate = [l for l in body.splitlines() if "mean[" in l and "+=" in l]
        assert len(accumulate) == 2
        assert all("if (" in l for l in accumulate)
        assert "cov[" in body and "if (" not in next(
            l for l in body.splitlines() if "cov[" in l and "+=" in l
        )

    def test_reserved_tensor_names_are_mangled(self):
        prog, res = fused("conv_bn", 32)
        src = generate_c(res.tree, prog)
        assert "static double t_gamma_[" in src
        assert 'read_tensor("gamma.bin", (double *)t_gamma_,' in src
        assert not re.search(r"static double gamma\b", src)
        names = c_names(["A", "gamma", "t_gamma_", "y0", "j1", "exp", "index", "x_t", "_x", "c3_i", "omp_x", "double"])
        assert names["A"] == "A" and names["t_gamma_"] == "t_gamma_"
        assert names["gamma"] == "t_gamma__"
        assert len(set(names.values())) == len(names)
        assert not any(is_reserved(n) for n in names.values())

    def test_signatures_unchanged(self):
        assert list(inspect.signature(generate_c).parameters) == ["tree", "program", "params"]
        assert list(inspect.signature(compile_and_run).parameters) == [
            "tree", "program", "store", "params", "keep_dir", "openmp",
        ]
        assert list(inspect.signature(promoted_buffers).parameters) == ["result", "params"]


class TestLiveness:
    def test_harris_reads_only_its_input(self):
        prog, res = fused("harris", 64)
        assert live_in_tensors(prog) == ("in_img",)
        assert generate_c(res.tree, prog).count("  read_tensor(") == 1

    @needs_cc
    def test_only_live_in_tensors_are_taken_from_the_store(self):
        """A store that holds only the input never grows the other arrays."""
        prog, res = fused("harris", 64)
        store = TensorStore(prog.tensors, prog.params)
        store.set_input("in_img", make_store(prog)["in_img"])
        out = compile_and_run(res.tree, prog, store, openmp=False)
        assert list(store.arrays) == ["in_img"]
        ref = make_store(prog)
        execute_naive(prog, ref)
        for t in prog.liveout:
            np.testing.assert_allclose(out[t], ref[t], rtol=1e-12)

    def test_in_place_update_stays_read_and_unpromoted(self):
        """conv2d's ``A = quant(A)`` reads what it overwrites."""
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        live_in = live_in_tensors(prog)
        assert live_in == ("A", "B")
        sites, kept = scratch_sites(res.tree, prog, live_in)
        assert sites == {} and kept == {"A": "live-in"}
        src = generate_c(res.tree, prog)
        assert "static double A[14][14];" in src and 'read_tensor("A.bin"' in src
        assert "threadprivate" not in src

    def test_half_written_liveout_stays_read(self):
        """covariance writes the upper triangle of ``cov`` only."""
        prog, res = fused("covariance", 24, (4, 8))
        assert live_in_tensors(prog) == ("data", "cov")
        assert 'read_tensor("cov.bin"' in generate_c(res.tree, prog)

    def test_reduction_target_initialised_first_is_not_live_in(self):
        prog = polybench.build_gemver(8)
        assert "x1" not in live_in_tensors(prog) and "w" not in live_in_tensors(prog)

    @staticmethod
    def strided(reader_index, liveout):
        """``Y[2*i] = ...`` then a read of ``Y[reader_index(i)]``."""
        b = ProgramBuilder("strided")
        X, Y, Z = b.tensor("X", (8,)), b.tensor("Y", (16,)), b.tensor("Z", (8,))
        (i,) = b.iters("i")
        b.assign("S0", [i], "0 <= i <= 7", Y[2 * i], X[i] * 2.0)
        b.assign("S1", [i], "0 <= i <= 7", Z[i], Y[reader_index(i)] + 1.0)
        return b.set_liveout(*liveout).build()

    def test_strided_write_covers_only_what_it_writes(self):
        """FM's rational projection of ``{2*i}`` holds the odd elements
        too; they are not written, so reading one (or writing ``Y`` back)
        observes the initial contents."""
        assert live_in_tensors(self.strided(lambda i: 2 * i + 1, ["Z"])) == ("X", "Y")
        assert live_in_tensors(self.strided(lambda i: 2 * i, ["Y", "Z"])) == ("X", "Y")

    @needs_cc
    def test_strided_write_keeps_the_other_elements(self, tmp_path):
        prog = self.strided(lambda i: 2 * i + 1, ["Y", "Z"])
        expected = make_store(prog)
        execute_naive(prog, expected)
        out = compile_and_run(
            initial_tree(prog), prog, make_store(prog), keep_dir=str(tmp_path), openmp=False
        )
        assert np.any(expected["Y"][1::2] != 0.0)
        for t in prog.liveout:
            np.testing.assert_allclose(out[t], expected[t], rtol=1e-12)

    def test_dense_non_unit_write_is_a_cover(self):
        """``up[2*h + dh]`` with ``dh`` in 0..1 writes every element: both
        bounds on ``h`` have coefficient 2 and the dark shadow still holds,
        so bilateral_grid's and local_laplacian's upsampled stages are not
        mistaken for live-in."""
        b = ProgramBuilder("upsample")
        X, U, Z = b.tensor("X", (8,)), b.tensor("U", (16,)), b.tensor("Z", (16,))
        h, dh, k = b.iters("h", "dh", "k")
        b.assign("S0", [h, dh], "0 <= h <= 7 and 0 <= dh <= 1", U[2 * h + dh], X[h] * 2.0)
        b.assign("S1", [k], "0 <= k <= 15", Z[k], U[k] + 1.0)
        assert live_in_tensors(b.set_liveout("Z").build()) == ("X",)
        assert live_in_tensors(get_workload("local_laplacian", 64)) == ("in_img",)
        assert live_in_tensors(get_workload("bilateral_grid", 64)) == ("in_img",)

    def test_entails_is_sound(self):
        """Interval propagation and FM against brute force on small boxes."""
        rng = random.Random(7)
        syms = ["a", "b", "c"]
        for _ in range(400):
            cons = []
            for s in syms:
                lo = rng.randint(-3, 2)
                cons += [Constraint.ge(LinExpr.var(s), lo), Constraint.le(LinExpr.var(s), lo + rng.randint(0, 4))]
            for _ in range(rng.randint(0, 3)):
                cons.append(Constraint(LinExpr({s: rng.randint(-3, 3) for s in syms}, rng.randint(-4, 4)), ">="))
            goal = Constraint(LinExpr({s: rng.randint(-2, 2) for s in syms}, rng.randint(-3, 3)), ">=")
            points = [
                p for p in (dict(zip(syms, v)) for v in itertools.product(range(-4, 8), repeat=3))
                if all(c.satisfied_by(p) for c in cons)
            ]
            if entails(cons, goal):
                assert all(goal.satisfied_by(p) for p in points), (cons, goal)


class TestUnchangedElsewhere:
    @pytest.mark.parametrize("name,size", ALL_WORKLOADS)
    def test_print_tree_is_the_parents(self, name, size):
        prog, res = fused(name, size)
        digest = hashlib.sha256(print_tree(res.tree, prog).encode()).hexdigest()[:16]
        assert digest == PRINT_TREE_AT_PARENT[name]
