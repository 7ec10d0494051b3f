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
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from repro import CompileOptions, obs
from repro.codegen import execute_naive, make_store, print_tree, promoted_buffers, run_program
from repro.codegen.cbackend import (
    CBackendError,
    HEADER,
    c_names,
    compile_and_run,
    compiler_available,
    generate_c,
    is_reserved,
)
from repro.codegen.gpu_mapping import map_to_gpu
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
from repro.workloads import default_tile_sizes, get_workload, workload_names

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
    # live-in and live-out at once (mvt's x1/x2, like covariance's cov), and
    # a live-in that the program overwrites (edge_infer's A)
    ("mvt", 24, (4, 8)),
    ("edge_infer", 16, (4, 4)),
]

#: The ``SMALL`` cases whose fused tile band must run serially: why the
#: tensor its extension writes is not thread-private, and the pragmas left.
#: Every tile recomputes covariance's mean/cdata, requantises its halo of
#: edge_infer's live-in A in place, and at size 32 rebuilds all of the 4x4
#: bilateral grid's blurs (at 1024 they are per-tile buffers and the pragma
#: stays; with 4x4 tiles the unfused grid loop keeps its own).
SERIAL = {
    ("covariance", 48, (32, 32)): ("box_as_large_as_the_tensor", 0),
    ("covariance", 20, (4, 8)): ("box_as_large_as_the_tensor", 0),
    ("bilateral_grid", 32, (8, 16)): ("box_as_large_as_the_tensor", 0),
    ("bilateral_grid", 32, (4, 4)): ("box_as_large_as_the_tensor", 1),
    ("edge_infer", 16, (4, 4)): ("live-in", 0),
}

#: What every reader of the schedule tree produced at be42ec4, before the
#: four tree walkers became readers of one loop nest:
#: sha256[:16] of ``print_tree`` for the cpu tree (openmp) and for the
#: gpu-mapped tree (cuda), of ``generate_c`` for the fused tree and for
#: ``initial_tree``, and, for the ``SMALL`` rows, of the interpreter's
#: live-out bytes and of its ``counts``.  The two ``generate_c`` columns
#: were recorded again when the emitted program began to map its tensors
#: (PR 22: ``nest``, ``map_in``/``map_out``, literal tile-loop starts, five
#: pragmas dropped); the other four are still be42ec4's, and the mvt and
#: edge_infer rows were recorded at PR 22's parent.  Rows: the 15 benchmark
#: workloads at ``ALL_WORKLOADS``' sizes, every ``workload_names()`` entry
#: the C backend accepts at its CLI default size (``None``; not
#: multiscale_interp, whose 512 leaves a level empty), and the
#: tile-crossing ``SMALL`` cases.  A refactor of the readers is done when
#: this table is untouched.
AT_PARENT = {
    ("bilateral_grid", 128, None):
        "e51ff3b3dbce8ca6 cda57dddd396855b 7f6aa0eeac1befa3 2b0fc260d8a5fa59",
    ("camera_pipeline", 128, None):
        "92176355761b1ac1 88c2ba0b175a0fc9 0b100980b41b59be 07c27e2b44cbf517",
    ("harris", 128, None):
        "ebe0183c733f2f64 fd403e2a2b76e7d8 1586a3a4b2511481 a998fedb28a66e1f",
    ("local_laplacian", 128, None):
        "92114ccc06874e30 28e5df8b60f5a662 9e362bd515ce486a f5acaf418ffef3b6",
    ("multiscale_interp", 2048, None):
        "958db219e3cc43f1 9cdb43b863983bcd 44ce4fe932917bd8 653b4fec1bc149ce",
    ("unsharp_mask", 128, None):
        "002aa77fb670ca0d 5c91986755b58f93 a7a2d84fdaa3a340 c4361a33a9fefe33",
    ("2mm", 64, None):
        "05d16a47d91c7d8a df5aecbe076f376b 0f96dc97ee9d9548 84417292db3de315",
    ("3mm", 64, None):
        "d1f4b29745f960f0 88a41cbf12c95f84 5ff217ec919f1f27 5e84f2aa85ac8ff6",
    ("atax", 64, None):
        "7b8a2c63fbc5e962 66c5eb1dd475833f 89073246f54c9663 1550c72e4ac95815",
    ("bicg", 64, None):
        "c5be7611c838d7ea 0dbef20b5475d199 b4b757ffa25bf210 e2713609c01f46f9",
    ("covariance", 64, None):
        "afeef0bb701b9fc1 60d9b1b907601c1d 0d0bb05937a5fed2 d565700bf235bc1c",
    ("doitgen", 16, None):
        "9bbcf50e08cb358b be3c4ed8b1895c09 91aceb468a07b730 d4e21e1d149a96df",
    ("gemver", 64, None):
        "e502c8daa508deed 0364af9483647bc7 1e9f5c560757250b c96979016448b43d",
    ("mvt", 64, None):
        "0fb049225fd8c97a 028e2bada65f4baf a5a370e70efe01ee 8bf864b731de26b3",
    ("conv2d", 48, None):
        "a7af8797476fd422 392fe521094d8a5c 7849b1d8c8384194 c23f8031673ef905",
    ("2mm", None, None):
        "d8e3cdbe16fbf3fa 82dd4d9431b1a014 3e59237a9205c3bd 9ca81766231b3c5a",
    ("3mm", None, None):
        "46b06a766d446c03 111a98ad9d8f917e 459dec62b48f593f 9509ad7a3738058f",
    ("atax", None, None):
        "78d6b7d21f42b962 1d86bbb80292818e 9451f98c5a36f557 09ba796c974ae927",
    ("bicg", None, None):
        "fbfa09dee931674a d438399b8346b19e 7448c5de01b8ffa6 cf9f6f307f9e60e5",
    ("bilateral_grid", None, None):
        "3c2d734ec5bc83d6 7442afc99b578db9 9dc9ee69032f8849 fc61baa9a72a62a5",
    ("camera_pipeline", None, None):
        "057546209897db52 fead7cf19c3063a0 9b5ef8454d1ee29b e488003cc2ec5b87",
    ("camera_resnet", None, None):
        "2451337da858a43e f97a3ed4d0d375b9 986a6e811c7a293d 8e252e6be7212325",
    ("conv2d", None, None):
        "a7af8797476fd422 392fe521094d8a5c 3de4164819cf5361 be84e9d0e379f637",
    ("conv_bn", None, None):
        "08a94c3aced594a4 cb92d9c0a7a2a04b 9f5824cdfa9b6018 e2b79f47ebeafd82",
    ("covariance", None, None):
        "bab7fe0b3026fc9d 70e4246fe95add78 bfe8e20db5207d4f 89dc2cb40f4a5eb7",
    ("doitgen", None, None):
        "b3854e2c47bf9f15 623bbcfe82b1e5ff 064c60e7bd789751 8a38f9781f97d63c",
    ("edge_infer", None, None):
        "df06e32421a7c280 09786a76e808f3dc f1a8680f693b5447 5ba1c722ad1306cd",
    ("equake", None, None):
        "c514218703d5d760 d9475a8c292628c0 4ab61a8036b8fe9b 315d04e17bf2a457",
    ("gemver", None, None):
        "81448912859915f2 0d4ee4d7114c4b54 02fe7aecc31947ad 3d50b7423c7d44ab",
    ("harris", None, None):
        "b53d75660266220a 1a78b40197b37709 440158d286a9fac2 4fa87ddddbb4c0cb",
    ("local_laplacian", None, None):
        "a5783729a4db9ce5 6ed62011e956b726 adb0ae24a9b69d61 a391d9aad799c38f",
    ("mvt", None, None):
        "40fa2906480a9ed5 563d6274ffb986ef 35ad88d3faad08cc c54220c88141dae2",
    ("unsharp_mask", None, None):
        "de5c7531e618ac6a e769344d2f655a90 5478163b6e29741e 31391118805b376e",
    ("harris", 32, (4, 8)):
        "71bdcc87aa0d79b7 e7ef1ee5c1d0468b d6b35396145e9edb 42da4bea8fb947ce 0e156f814c2a2777 db7c838e001879a5",
    ("bilateral_grid", 32, (8, 16)):
        "9735c613d41cde02 110b3702f8db4ca4 eeecaad08a230244 cc6c14eb63168813 e286b098a73b327e c09575b3e5e3dc67",
    ("bilateral_grid", 32, (4, 4)):
        "cb262661e126e351 75e4bd3c62d131e8 ec54336c58087f4c cc6c14eb63168813 e286b098a73b327e 395ab5d4e68e6083",
    ("unsharp_mask", 32, (4, 8)):
        "ed4db339d082b541 225c81695b59c1b1 7fd427527a69f936 368f2f64b096f302 844415082ca29839 d8b6c69e3d7233f9",
    ("covariance", 48, (32, 32)):
        "417da55b2c642c30 9406e983be085850 462246f58c5e0445 6a041fc3f5f8d50c 689dc0025ff51c70 129e22253e60a066",
    ("covariance", 20, (4, 8)):
        "175c41938ef9d0dc cfa275d66de0c667 b3f5dcd641b49188 82386cf5125cde19 39a980e68c7a0b67 516c85d3d63c9e45",
    ("conv_bn", 32, (32, 32)):
        "08a94c3aced594a4 cb92d9c0a7a2a04b 9f5824cdfa9b6018 e2b79f47ebeafd82 0870af09b9f3d48a bd8d18c930a143a2",
    ("gemver", 24, (4, 8)):
        "8ea5dfee3e1e4373 5eb88c66c56ccb01 4152d89e6fdf4035 7acb82ef64b119b1 d8a5a4b248fa23c1 7245affbe22962fb",
    ("2mm", 24, (4, 8)):
        "f78c8d2b94af21e5 d7a88296f0d6a7a2 2aaa363bed6a9772 11001bf32a54b701 492451c1aa1f4ff1 1bbc56b5274bda78",
    ("equake", 500, None):
        "13807a1fc3c9c11b 1185fb34fc6e93bf e85946a8c81a63a1 52886e1bc51ae906 68199789f9bbf944 b38c29e22eec7254",
    ("mvt", 24, (4, 8)):
        "f5a3524ef8f51cfb e104a1053fd5e5e5 2139d13df28d9b79 637ec97b76c2067e 4029a419c21fc2e7 f69bdbcd27e7f069",
    ("edge_infer", 16, (4, 4)):
        "052c6e45a80b7ac1 e10a045987cf5355 2cf20df52a1c956f e9e2af6f0d9ea6bd c3666130f3ab1a74 c49e88e7bdbe524c",
}


#: Where the cost model's promoted buffer is smaller than the one the C
#: backend allocates, at each workload's default size and tile sizes:
#: ``(workload, tensor) -> (model's box, C's box)``; 36 of the 87 buffers, the
#: other 51 agree.  C never allocates less.  EXPERIMENTS.md ("One tile, one
#: spelling") says which of the two is right for which rows; a fix on either
#: side shows up here as a diff.
MODEL_SHORT_OF_C = {
    ("camera_pipeline", "t_luma"): ((64, 256), (66, 258)),
    ("local_laplacian", "t_b4_bx"): ((20, 140), (20, 142)),
    ("local_laplacian", "t_b4_by"): ((18, 140), (18, 142)),
    ("local_laplacian", "t_b4_up"): ((34, 279), (34, 282)),
    ("local_laplacian", "t_b4_lap"): ((34, 279), (34, 282)),
    ("local_laplacian", "t_b4_dbx"): ((34, 277), (34, 280)),
    ("local_laplacian", "t_b4_dby"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b4_clamp"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b4_wt"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b4_mix"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b4_gain"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b5_remap"): ((32, 277), (32, 280)),
    ("local_laplacian", "t_b5_down"): ((15, 138), (15, 139)),
    ("local_laplacian", "t_b5_bx"): ((15, 136), (15, 137)),
    ("local_laplacian", "t_b5_by"): ((13, 136), (13, 137)),
    ("local_laplacian", "t_b5_up"): ((26, 272), (26, 274)),
    ("local_laplacian", "t_b5_lap"): ((26, 272), (26, 274)),
    ("local_laplacian", "t_b5_dbx"): ((26, 270), (26, 272)),
    ("local_laplacian", "t_b5_dby"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b5_clamp"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b5_wt"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b5_mix"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b5_gain"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b6_remap"): ((24, 270), (24, 272)),
    ("local_laplacian", "t_b6_down"): ((12, 135), (12, 136)),
    ("local_laplacian", "t_b6_bx"): ((12, 133), (12, 134)),
    ("local_laplacian", "t_b6_by"): ((10, 133), (10, 134)),
    ("local_laplacian", "t_b6_up"): ((18, 265), (18, 266)),
    ("local_laplacian", "t_b6_lap"): ((18, 265), (18, 266)),
    ("local_laplacian", "t_b6_dbx"): ((18, 263), (18, 264)),
    ("local_laplacian", "t_b6_dby"): ((16, 263), (16, 264)),
    ("local_laplacian", "t_b6_clamp"): ((16, 263), (16, 264)),
    ("local_laplacian", "t_b6_wt"): ((16, 263), (16, 264)),
    ("local_laplacian", "t_b6_mix"): ((16, 263), (16, 264)),
    ("local_laplacian", "t_b6_gain"): ((8, 256), (16, 264)),
    ("local_laplacian", "t_b7_remap"): ((16, 263), (16, 264)),
}


def reader_digests(name, size, tiles):
    """One row of ``AT_PARENT`` as this checkout computes it."""

    def h(data):
        return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:16]

    prog = get_workload(name, size)
    with_interp = (name, size, tiles) in SMALL
    tiles = tiles or default_tile_sizes(name)
    cpu = optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))
    gpu = optimize(prog, CompileOptions(target="gpu", tile_sizes=tiles))
    map_to_gpu(gpu)
    out = [
        h(print_tree(cpu.tree, prog, style="openmp")),
        h(print_tree(gpu.tree, prog, style="cuda")),
        h(generate_c(cpu.tree, prog)),
        h(generate_c(initial_tree(prog), prog)),
    ]
    if with_interp:
        store, counts = run_program(prog, cpu.tree)
        live_out = b"".join(t.encode() + store[t].tobytes() for t in sorted(prog.liveout))
        out += [h(live_out), h(repr(sorted(counts.items())))]
    return " ".join(out)


SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def fused(name, size, tiles=None):
    prog = get_workload(name, size)
    tiles = tiles or default_tile_sizes(name)
    return prog, optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))


def main_of(src):
    return src[src.index("int main("):]


def nest_of(src):
    """The function every statement of the program is in."""
    return src[src.index("static void nest("):src.index("int main(")]


def scratch_shapes(src):
    """tensor -> shape of every thread-private buffer the source declares."""
    return {
        m.group(1): tuple(int(e) for e in re.findall(r"\[(\d+)\]", m.group(2)))
        for m in re.finditer(
            r"static double (\w+)((?:\[\d+\])+);\n#pragma omp threadprivate", src
        )
    }


def kernel(workdir, *args):
    """One execution of the executable in ``workdir``."""
    return subprocess.run(["./kernel", *args], cwd=workdir, capture_output=True, text=True)


def build(source, prog, workdir, flags):
    """``kernel`` from ``source`` with the caller's gcc flags, beside the
    live-in files of ``make_store(prog)``."""
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


def build_and_run(source, prog, workdir, flags):
    """What ``compile_and_run`` does, with the caller's gcc flags."""
    build(source, prog, workdir, flags)
    ran = kernel(workdir)
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
        # every tile requantises its halo of A in place: not a parallel loop
        assert "#pragma omp parallel for" not in src
        # ... and A is mapped copy-on-write, so not const
        assert "double (*restrict A)[14][14], const double (*restrict B)[3][3]" in src
        assert "+=" in src  # the reduction
        assert src.count("for (long") >= 6

    def test_all_liveouts_written(self):
        prog = polybench.build_gemver(8)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        src = generate_c(res.tree, prog)
        assert 'double (*x1)[8] = map_out("x1.out.bin", 64L, NULL);' in src
        assert 'double (*w)[8] = map_out("w.out.bin", 64L, NULL);' in src


def test_failed_compile_leaves_no_temp_dir(tmp_path, monkeypatch):
    """Every failure path of ``compile_and_run`` removes its work dir."""
    (tmp_path / "bin").mkdir()
    (tmp_path / "tmp").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_text("#!/bin/sh\necho no >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    prog = conv2d.build(PARAMS)
    with pytest.raises(CBackendError, match="compilation failed"):
        compile_and_run(initial_tree(prog), prog, make_store(prog))
    assert os.listdir(tmp_path / "tmp") == []


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
            assert "if (" not in nest_of(generate_c(tree, prog))

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
        assert '"t_gray.bin"' not in src
        assert "t_gray[-c1_G5_t0_T + c3_G0x_t0][-c2_G5_t1_T + c4_G0x_t1] =" in src
        # S8..S10 share the live-out band: not an extension's, so global
        assert "static double t_Sxy[1020][1020];" in src

    @pytest.mark.parametrize(
        "name,size",
        [("harris", 1024), ("unsharp_mask", 1024), ("bilateral_grid", 1024)]
        + [(name, None) for name in workload_names()],
    )
    def test_buffer_shapes_are_the_models(self, name, size):
        """The census of model against C: every buffer C allocates holds the
        box ``promoted_buffers`` prices, and where it is larger the pair is in
        ``MODEL_SHORT_OF_C``, to the element."""
        prog, res = fused(name, size)
        try:
            emitted = scratch_shapes(generate_c(res.tree, prog))
        except CBackendError:
            assert (name, size) == ("multiscale_interp", None)  # an empty level
            return
        modelled = {
            b.tensor: b.box_shape for bufs in promoted_buffers(res).values() for b in bufs
        }
        if size is not None:  # the three programs this test began with
            assert emitted == modelled
        assert set(emitted) <= set(modelled)
        for tensor, shape in emitted.items():
            assert all(m <= e for m, e in zip(modelled[tensor], shape)), tensor
        short = {
            (name, tensor): (modelled[tensor], shape)
            for tensor, shape in emitted.items()
            if modelled[tensor] != shape
        }
        pinned = {
            row: pair for row, pair in MODEL_SHORT_OF_C.items() if row[0] == name and size is None
        }
        assert short == pinned

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
        body = nest_of(generate_c(tree, prog))
        var = re.search(r"for \(long (\w+) = 0; \1 <= 9; \1\+\+\)", body).group(1)
        assert f"  (*Y)[{var}] = " in body
        assert f"if (({var} - 3) >= 0 && (-{var} + 5) >= 0) (*Z)[{var}] = " in body
        assert body.count("if (") == 1

    def test_overlapping_pieces_run_once(self):
        """covariance's extension of ``mean`` has two overlapping pieces
        (the tile's rows and its columns): the second is emitted minus the
        first, so on a diagonal tile no column is accumulated twice."""
        prog, res = fused("covariance", 48, (32, 32))
        body = nest_of(generate_c(res.tree, prog))
        accumulate = [l for l in body.splitlines() if "mean[" in l and "+=" in l]
        assert len(accumulate) == 2
        assert all("if (" in l for l in accumulate)
        assert "if (" not in next(
            l for l in body.splitlines() if "(*cov)[" in l and "+=" in l
        )

    def test_reserved_tensor_names_are_mangled(self):
        prog, res = fused("conv_bn", 32)
        src = generate_c(res.tree, prog)
        assert "const double (*restrict t_gamma_)[" in src
        assert re.search(r'const double \(\*t_gamma_\)\[\d+\] = map_in\("gamma.bin", ', src)
        assert not re.search(r"\bgamma\)", src)
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


#: Small enough for the interpreter; multiscale_interp only fills its
#: pyramid at 2048, which is not.
LIVENESS_SIZES = {
    "bilateral_grid": 32, "camera_pipeline": 32, "camera_resnet": 32,
    "doitgen": 8, "equake": 200, "local_laplacian": 64,
}


class TestExchange:
    """Tensors are mapped, not copied: live-ins privately from ``<t>.bin``,
    live-outs shared onto ``<t>.out.bin``, and the nest is a function of
    them."""

    @pytest.mark.parametrize("name,size", [("conv2d", 48), ("covariance", 24), ("mvt", 24), ("harris", 64), ("gemver", 24)])
    def test_one_mapping_per_tensor_and_nothing_copied(self, name, size):
        prog, res = fused(name, size)
        live_in = live_in_tensors(prog)
        names = c_names(prog.tensors)
        for tree in (res.tree, initial_tree(prog)):
            src = generate_c(tree, prog)
            main = main_of(src)
            for t in prog.liveout:
                init = f'"{t}.bin"' if t in live_in else "NULL"
                assert len(re.findall(rf' = map_out\("{t}.out.bin", \d+L, {init}\);', main)) == 1
            for t in set(live_in) - set(prog.liveout):
                const = "" if prog.writers_of(t) else "const "
                prot = "PROT_READ | PROT_WRITE" if prog.writers_of(t) else "PROT_READ"
                assert len(re.findall(rf'  {const}double \(\*{names[t]}\)[\[\d\]]* = map_in\("{t}.bin", \d+L, {re.escape(prot)}\);', main)) == 1
                assert re.search(rf"{const}double \(\*restrict {names[t]}\)", nest_of(src))
            assert main.count(" = map_") == len(set(live_in) | set(prog.liveout))
            for gone in ("fread(", "fwrite(", '"wb"', "fopen(", "O_TRUNC", "read_tensor", "write_tensor"):
                assert gone not in src
            assert "for (" not in main and "for (long" in nest_of(src)

    @pytest.mark.parametrize("name", [n for n in workload_names() if n != "multiscale_interp"])
    def test_a_live_out_is_written_everywhere_or_live_in(self, name):
        """Why a stale ``<t>.out.bin`` needs no clearing: garbage in every
        tensor that is not live-in changes no live-out."""
        prog = get_workload(name, LIVENESS_SIZES.get(name, 16))
        ref, got = make_store(prog), make_store(prog)
        for t in set(prog.tensors) - set(live_in_tensors(prog)):
            got[t][...] = np.nan
        execute_naive(prog, ref)
        execute_naive(prog, got)
        for t in prog.liveout:
            np.testing.assert_array_equal(got[t], ref[t])

    @needs_cc
    @pytest.mark.parametrize("name,size,tiles", [("conv2d", 48, None), ("covariance", 20, (4, 8))])
    def test_input_files_are_never_modified(self, name, size, tiles, tmp_path):
        """conv2d writes its live-in ``A`` (a private mapping); covariance's
        ``cov`` is live-in and live-out (copied into the output first)."""
        prog, res = fused(name, size, tiles)
        store = make_store(prog)
        compile_and_run(res.tree, prog, store, keep_dir=str(tmp_path), openmp=False)
        for t in live_in_tensors(prog):
            assert (tmp_path / f"{t}.bin").read_bytes() == store[t].tobytes()

    @needs_cc
    @pytest.mark.parametrize("name,size,tiles", [("harris", 32, (4, 8)), ("covariance", 20, (4, 8))])
    def test_a_stale_output_file_changes_nothing(self, name, size, tiles, tmp_path):
        prog, res = fused(name, size, tiles)
        compile_and_run(res.tree, prog, make_store(prog), keep_dir=str(tmp_path), openmp=False)
        (out,) = [tmp_path / f"{t}.out.bin" for t in prog.liveout]
        fresh = out.read_bytes()
        nan = np.full(len(fresh) // 8, np.nan).tobytes()
        for stale in (nan, nan + nan, nan[: len(nan) // 2 + 8]):
            out.write_bytes(stale)
            assert kernel(tmp_path).returncode == 0
            assert out.read_bytes() == fresh

    @needs_cc
    def test_every_failure_is_an_exit_code_and_a_message(self, tmp_path):
        prog = conv2d.build(PARAMS)
        store = make_store(prog)
        compile_and_run(initial_tree(prog), prog, store, keep_dir=str(tmp_path), openmp=False)
        os.remove(tmp_path / "B.bin")
        ran = kernel(tmp_path)
        assert (ran.returncode, ran.stderr) == (2, "missing B.bin\n")
        (tmp_path / "B.bin").write_bytes(store["B"].tobytes()[:-8])
        ran = kernel(tmp_path)
        assert (ran.returncode, ran.stderr) == (3, "B.bin: expected 72 bytes, found 64\n")
        (tmp_path / "B.bin").write_bytes(store["B"].tobytes())
        os.remove(tmp_path / "C.out.bin")
        os.mkdir(tmp_path / "C.out.bin")
        ran = kernel(tmp_path)
        assert (ran.returncode, ran.stderr) == (4, "C.out.bin: Is a directory\n")
        with pytest.raises(CBackendError, match=r"execution failed \(4\): C.out.bin: Is a directory"):
            compile_and_run(initial_tree(prog), prog, store, keep_dir=str(tmp_path), openmp=False)

    @pytest.mark.parametrize("openmp", [False, True], ids=["serial", "openmp"])
    @pytest.mark.parametrize("tensor", ["in_img", "t_masked"])
    def test_outermost_index_of_a_mapped_tensor_is_checked(self, tensor, openmp, sanitizers, tmp_path):
        """``nest`` takes pointers to whole arrays, so UBSan checks every
        dimension of a mapped tensor as it does of a static array."""
        prog, res = fused("unsharp_mask", 32, (4, 8))
        src = generate_c(res.tree, prog)
        assert tensor in (live_in_tensors(prog) + tuple(prog.liveout))
        rows, cols = prog.tensors[tensor].concrete_shape(prog.params)
        off_by_one, n = re.subn(rf"\(\*{tensor}\)\[([^\]]*)\]", rf"(*{tensor})[\1 + 1]", src)
        assert n >= 1
        build(off_by_one, prog, str(tmp_path), SANITIZE + (["-fopenmp"] if openmp else []))
        ran = kernel(tmp_path)
        assert ran.returncode != 0
        assert f"index {rows} out of bounds for type 'double [{rows}][{cols}]'" in ran.stderr

    @needs_cc
    def test_the_nest_is_timed_on_request_only(self, tmp_path):
        prog, res = fused("harris", 64)
        compile_and_run(res.tree, prog, make_store(prog), keep_dir=str(tmp_path), openmp=False)
        quiet = kernel(tmp_path)
        assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, "", "")
        t0 = time.perf_counter()
        timed = kernel(tmp_path, "t")
        wall_ms = 1e3 * (time.perf_counter() - t0)
        label, value = timed.stderr.split()
        assert (timed.returncode, timed.stdout, label) == (0, "", "nest_ms")
        assert 0.0 < float(value) <= wall_ms

    @needs_cc
    def test_header_names_as_tensors_round_trip(self, tmp_path):
        """``read``, ``stat`` and ``time`` are functions of the headers the
        exchange needs: mangled in C, their files keep the tensor's name."""
        b = ProgramBuilder("posix_names")
        read, stat, clock = b.tensor("read", (8,)), b.tensor("stat", (8,)), b.tensor("time", (8,))
        (i,) = b.iters("i")
        b.assign("S0", [i], "0 <= i <= 7", stat[i], read[i] * 2.0)
        b.assign("S1", [i], "0 <= i <= 7", clock[i], stat[i] + 1.0)
        prog = b.set_liveout("time").build()
        src = generate_c(initial_tree(prog), prog)
        assert "(*t_time_)[" in src and "t_stat_[" in src and "(*t_read_)[" in src
        store = make_store(prog)
        out = compile_and_run(initial_tree(prog), prog, store, keep_dir=str(tmp_path), openmp=False)
        assert (tmp_path / "read.bin").exists() and (tmp_path / "time.out.bin").exists()
        np.testing.assert_allclose(out["time"], store["read"] * 2.0 + 1.0, rtol=1e-12)


class TestParallelLoops:
    """A loop is parallel only if no tile rewrites a shared array in it."""

    @pytest.mark.parametrize("name,size,tiles", SMALL)
    def test_pragma_dropped_only_over_unprivatised_extension_writes(self, name, size, tiles):
        prog, res = fused(name, size, tiles)
        with obs.collect() as report:
            src = generate_c(res.tree, prog)
        dropped = {k: v for k, v in report.counters.items() if k.startswith("codegen.c.parallel_dropped.")}
        if (name, size, tiles) in SERIAL:
            why, pragmas = SERIAL[name, size, tiles]
            assert dropped == {f"codegen.c.parallel_dropped.{why}": 1}
            assert src.count("#pragma omp parallel for") == pragmas
        else:
            assert dropped == {} and "#pragma omp parallel for" in src

    def test_tile_loops_start_at_a_literal(self):
        prog, res = fused("2mm", 256, (32, 32))
        src = generate_c(res.tree, prog)
        assert "floord(" not in nest_of(src)
        assert "for (long c1_G0_t0_T = 0; c1_G0_t0_T <= 255; c1_G0_t0_T += 32) {" in src


class TestLiveness:
    def test_harris_reads_only_its_input(self):
        prog, res = fused("harris", 64)
        assert live_in_tensors(prog) == ("in_img",)
        assert generate_c(res.tree, prog).count(" = map_in(") == 1

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
        assert 'double (*A)[14][14] = map_in("A.bin", 1568L, PROT_READ | PROT_WRITE);' in src
        assert "threadprivate" not in src

    def test_half_written_liveout_stays_read(self):
        """covariance writes the upper triangle of ``cov`` only."""
        prog, res = fused("covariance", 24, (4, 8))
        assert live_in_tensors(prog) == ("data", "cov")
        assert 'map_out("cov.out.bin", 4608L, "cov.bin")' in generate_c(res.tree, prog)

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
        assert digest == AT_PARENT[name, size, None].split()[0]

    @pytest.mark.parametrize("seed", [0, 42])
    def test_every_reader_is_the_parents(self, seed):
        """The whole table, in a fresh process under each hash seed."""
        child = (
            "import json; from tests.test_cbackend import AT_PARENT, reader_digests; "
            "print(json.dumps([reader_digests(*row) for row in AT_PARENT]))"
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(
            os.environ, PYTHONHASHSEED=str(seed),
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], cwd=root, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        got = dict(zip(AT_PARENT, json.loads(proc.stdout)))
        assert {row: d for row, d in got.items() if d != AT_PARENT[row]} == {}
