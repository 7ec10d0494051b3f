"""Property-based fuzzing of the whole pass.

Hypothesis generates random multi-stage image pipelines — pointwise maps,
stencils, down/upsampling, diamonds (stages with multiple consumers) —
and random tile sizes; the optimized schedule must (a) execute
bit-identically to naive program order on the live-out tensor and (b) pass
the dependence-order validator.  This is the strongest guarantee in the
repository: Algorithms 1-3 are exercised over arbitrary DAG shapes, not
just the named benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import CompileOptions
from repro.codegen import execute_naive, make_store, run_program
from repro.codegen.cbackend import compile_and_run, compiler_available
from repro.core import optimize
from repro.core.validate import validate_tree
from repro.pipelines.common import ImagePipeline

pytestmark = pytest.mark.slow

SIZE = 18  # small enough to execute, large enough for 2-3 tiles per dim

OPS = ("pointwise", "stencil_x", "stencil_y", "down", "up", "combine")


@st.composite
def pipelines(draw):
    """A random DAG of 2-7 stages over a SIZE x SIZE image."""
    p = ImagePipeline("fuzz")
    img = p.source("in_img", SIZE, SIZE)
    produced = [img]
    n_stages = draw(st.integers(2, 7))
    for k in range(n_stages):
        op = draw(st.sampled_from(OPS))
        src = produced[draw(st.integers(0, len(produced) - 1))]
        if op == "pointwise":
            out = p.pointwise(f"pw{k}", [src], lambda a: a * 1.5 + 0.25)
        elif op == "stencil_x" and src.w >= 4:
            out = p.stencil(f"sx{k}", src, [(0, 0), (0, 1), (0, 2)])
        elif op == "stencil_y" and src.h >= 4:
            out = p.stencil(f"sy{k}", src, [(0, 0), (1, 0), (2, 0)])
        elif op == "down" and src.h >= 8 and src.w >= 8:
            out = p.downsample(f"dn{k}", src, factor=2)
        elif op == "up" and src.h * 2 <= 64:
            out = p.upsample(f"up{k}", src, factor=2)
        elif op == "combine" and len(produced) >= 2:
            other = produced[draw(st.integers(0, len(produced) - 1))]
            h, w = min(src.h, other.h), min(src.w, other.w)
            from repro.pipelines.common import Image

            a = Image(src.tensor, h, w)
            b = Image(other.tensor, h, w)
            out = p.pointwise(f"cb{k}", [a, b], lambda x, y: x + y * 0.5)
        else:
            out = p.pointwise(f"pw{k}", [src], lambda a: a * 0.75)
        produced.append(out)
    return p.build([produced[-1]])


@settings(max_examples=25, deadline=None)
@given(pipelines(), st.sampled_from([(2, 2), (4, 4), (4, 8), (8, 8)]))
def test_fuzzed_pipeline_executes_correctly(prog, tiles):
    ref = make_store(prog)
    execute_naive(prog, ref)
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))
    store, _ = run_program(prog, result.tree)
    out = prog.liveout[0]
    np.testing.assert_allclose(store[out], ref[out], rtol=1e-9, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(pipelines())
def test_fuzzed_pipeline_schedule_is_legal(prog):
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
    report = validate_tree(result.tree, prog, max_pairs_per_dep=4000)
    assert report.ok, str(report)


@settings(max_examples=10, deadline=None)
@given(pipelines())
def test_fuzzed_pipeline_gpu_target(prog):
    ref = make_store(prog)
    execute_naive(prog, ref)
    result = optimize(prog, CompileOptions(target="gpu", tile_sizes=(4, 4)))
    store, _ = run_program(prog, result.tree)
    out = prog.liveout[0]
    np.testing.assert_allclose(store[out], ref[out], rtol=1e-9, atol=1e-12)


@pytest.mark.skipif(not compiler_available(), reason="no C compiler on this machine")
@settings(max_examples=12, deadline=None)
@given(pipelines(), st.sampled_from([(2, 2), (4, 4), (4, 8), (8, 8)]))
def test_fuzzed_pipeline_compiled_c_agrees(prog, tiles):
    """Interpreter == naive order == compiled C: the emitted per-tile
    buffers, elided guards and skipped reads hold on arbitrary DAGs (up- and
    downsampling give non-unit strides, diamonds several readers)."""
    ref = make_store(prog)
    execute_naive(prog, ref)
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles))
    store, _ = run_program(prog, result.tree)
    got = compile_and_run(result.tree, prog, make_store(prog), openmp=False)
    out = prog.liveout[0]
    np.testing.assert_allclose(store[out], ref[out], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got[out], ref[out], rtol=1e-12)
