"""The C backend's one loop-order rewrite: a parallel point loop goes beneath
the reduction it feeds when that makes the reduction's accesses
unit-stride (``repro.codegen.loop_order``).

Counts, not clocks: which statements move at each workload's default size,
that equake's sparse row and the matrix-vector reductions do not, that
every rewritten tree is legal, that the rewrite declines where it must,
and that it leaves the parallel loops alone.  ``tests/test_cbackend.py`` runs the rewritten C
against ``execute_naive`` (``SMALL``) and pins its digests (``AT_PARENT``).
"""

import numpy as np
import pytest

from repro import CompileOptions, obs
from repro.codegen import cbackend
from repro.codegen.cbackend import compile_and_run, compiler_available, generate_c
from repro.codegen.interp import execute_naive, make_store
from repro.codegen.loop_order import sink_unit_stride
from repro.codegen.nest import Loop, inner, scan
from repro.core import optimize
from repro.core.validate import validate_tree
from repro.ir import ProgramBuilder
from repro.presburger import LinExpr, UnionMap
from repro.schedule import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    SequenceNode,
)
from repro.workloads import default_tile_sizes, get_workload, workload_names

#: Per ``workload_names()`` entry at its default size and tiles: the
#: statements whose update runs ``j`` innermost.  Every other workload
#: keeps its order.  The contractions have one strided access (a column
#: walk: ``B[k][j]``, ``A2[j][i]``, ``data[k][j]``) that becomes
#: unit-stride.  The convolution windows (conv2d, conv_bn, camera_resnet,
#: edge_infer) are unit-stride either way; the tie sinks, so that the
#: innermost loop is the coincident one ``#pragma omp simd`` marks.
#: covariance's ``Sm1`` moves in its copy beneath the tile band; its
#: top-level copy is outermost and skipped.  mvt's ``Sx2`` walks ``A`` down
#: a column too, but its reduction is the second dimension of its own point
#: band, not a band beneath one, so the rule does not see it.
SUNK = {
    "2mm": ("St1", "Sd1"),
    "3mm": ("Se1", "Sf1", "Sg1"),
    "atax": ("Sy1",),
    "bicg": ("Ss1",),
    "camera_resnet": ("Sconv1", "Sconv2"),
    "conv2d": ("S2",),
    "conv_bn": ("Sconv1",),
    "covariance": ("Sm1", "Sv1"),
    "doitgen": ("Sd1",),
    "edge_infer": ("Sconv",),
    "gemver": ("Sx1",),
}

#: Reductions that must keep their order, because ``j`` innermost would add
#: a strided access: equake's sparse row reads ``x[i + k - 13]``,
#: unit-stride in ``k``, and a matrix-vector row (``A[i][j] * x[j]``) is
#: unit-stride in its reduction dimension.
KEPT = {
    "equake": ("Sspmv",),
    "gemver": ("Sw1",),
    "atax": ("St1",),
    "bicg": ("Sq1",),
    "mvt": ("Sx1", "Sx2"),
}


def fused(name, size=None, tiles=None):
    prog = get_workload(name, size)
    tiles = tiles or default_tile_sizes(name)
    return prog, optimize(prog, CompileOptions(target="cpu", tile_sizes=tiles)).tree


@pytest.mark.parametrize("name", workload_names())
def test_which_statements_are_sunk(name):
    prog, tree = fused(name)
    before = tree.pretty()
    rewritten, sunk = sink_unit_stride(tree, prog)
    assert tuple(s.stmt for s in sunk) == SUNK.get(name, ())
    assert tree.pretty() == before  # the optimizer's tree is not touched
    assert (rewritten is tree) == (name not in SUNK)
    reductions = {s.name for s in prog.statements if s.kind == "reduce"}
    assert set(KEPT.get(name, ())) <= reductions - {s.stmt for s in sunk}


@pytest.mark.parametrize("name", sorted(SUNK) + ["equake"])
def test_generate_c_reports_what_it_sank(name):
    """``codegen.c.loops_sunk`` and the span's ``sunk`` attribute, as
    ``repro optimize --stats`` and a trace show them."""
    prog, tree = fused(name)
    with obs.collect(trace=True) as report:
        src = generate_c(tree, prog)
    assert report.counters["codegen.c.loops_sunk"] == len(SUNK.get(name, ()))
    (span,) = [e for e in report.events if e.name == "codegen.generate_c"]
    entries = [e for e in span.attrs["sunk"].split("; ") if e]
    assert [e.split(":")[0] for e in entries] == list(SUNK.get(name, ()))
    for entry in entries:
        # "<stmt>: <j> beneath <k>": the k loop opens before the j loop
        j, k = entry.split(": ")[1].split(" beneath ")
        assert src.index(f"_{k} = ") < src.rindex(f"_{j} = ")


#: Sizes small enough to validate by enumeration; the rewrite fires at each.
VALIDATE = [
    ("2mm", 12, (4, 8)),
    ("3mm", 12, (8, 8)),
    ("atax", 16, (4, 8)),
    ("bicg", 16, (4, 8)),
    ("covariance", 12, (4, 8)),
    ("doitgen", 6, (4, 4)),
    ("gemver", 16, (4, 8)),
    ("conv2d", 10, (4, 4)),
]


@pytest.mark.parametrize("name,size,tiles", VALIDATE)
def test_rewritten_trees_are_legal(name, size, tiles):
    prog, tree = fused(name, size, tiles)
    rewritten, sunk = sink_unit_stride(tree, prog)
    assert tuple(s.stmt for s in sunk) == SUNK[name]
    report = validate_tree(rewritten, prog)
    assert report.ok, str(report)
    assert report.checked_pairs > 0


def matvec_t(n=8):
    """``y[i] += A[j][i] * x[j]``: the transposed walk the rule sinks."""
    b = ProgramBuilder("matvec_t")
    A, x, y = b.tensor("A", (n, n)), b.tensor("x", (n,)), b.tensor("y", (n,))
    i, j = b.iters("i", "j")
    b.assign("S0", [i], f"0 <= i < {n}", y[i], 0)
    b.reduce("S1", [i, j], f"0 <= i < {n} and 0 <= j < {n}", y[i], A[j, i] * x[j])
    return b.set_liveout("y").build()


def matvec_tree(prog, enclosed=True, coincident=True, init=None):
    """A tile band (when ``enclosed``) over the point band ``[p]`` over
    ``S0; for r: S1``; ``init`` replaces the leaf beneath ``S0``."""
    i, j = LinExpr.var("i"), LinExpr.var("j")
    rows = {"S0": (i,), "S1": (i,)}
    reduction = BandNode({"S1": (j,)}, ["r"], True, [False], LeafNode())
    seq = SequenceNode([FilterNode(["S0"], init or LeafNode()), FilterNode(["S1"], reduction)])
    point = BandNode(rows, ["p"], True, [coincident], seq)
    if enclosed:
        point = BandNode(rows, ["t"], True, [True], point, tile_sizes=[4])
    return DomainNode(prog.domains(), point)


def test_the_rule_on_its_own_example():
    prog = matvec_t()
    tree, sunk = sink_unit_stride(matvec_tree(prog), prog)
    assert [str(s) for s in sunk] == ["S1: p beneath r"]
    assert validate_tree(tree, prog).ok
    # the band had one dimension: it is gone, each filter has its own p
    seq = tree.child.child
    assert isinstance(seq, SequenceNode)
    (s0, s1) = seq.filters
    assert s0.child.dim_names == ("p",) and isinstance(s0.child.child, LeafNode)
    assert s1.child.dim_names == ("r",) and s1.child.child.dim_names == ("p",)


@pytest.mark.parametrize(
    "why",
    ["not coincident", "outermost", "extension beneath", "mark beneath"],
)
def test_declines(why):
    prog = matvec_t()
    extension = ExtensionNode(UnionMap(), LeafNode())
    tree = {
        "not coincident": lambda: matvec_tree(prog, coincident=False),
        "outermost": lambda: matvec_tree(prog, enclosed=False),
        "extension beneath": lambda: matvec_tree(prog, init=extension),
        "mark beneath": lambda: matvec_tree(prog, init=MarkNode("thread", LeafNode())),
    }[why]()
    assert sink_unit_stride(tree, prog) == (tree, ())


def test_declines_on_a_workload_whose_j_is_cleared():
    """A test copy of 2mm's tree with ``coincident`` cleared on every point
    band's innermost dimension: nothing may move."""
    prog, tree = fused("2mm", 24, (4, 8))
    tree = tree.copy()
    for node in tree.walk():
        if isinstance(node, BandNode) and node.tile_sizes is None:
            node.coincident[-1] = False
    assert sink_unit_stride(tree, prog) == (tree, ())


def parallel_loops(nest, found=None):
    """(dim, member statements) of every loop that carries the pragma."""
    found = [] if found is None else found
    if isinstance(nest, Loop) and nest.parallel:
        found.append((nest.dim, tuple(sorted({m.stmt for m in nest.members}))))
    for child in inner(nest):
        parallel_loops(child, found)
    return found


def dropped_counts(tree, prog):
    with obs.collect() as report:
        generate_c(tree, prog)
    return {k: v for k, v in report.counters.items() if "parallel_dropped" in k}


@pytest.mark.parametrize("name", workload_names())
def test_parallel_loops_are_the_same(name, monkeypatch):
    """The same loops carry ``#pragma omp parallel for``, and the same
    ``codegen.c.parallel_dropped.*`` counts, with the rewrite and without."""
    prog, tree = fused(name)
    rewritten, _ = sink_unit_stride(tree, prog)
    params = dict(prog.params)
    assert parallel_loops(scan(rewritten, prog, params)) == parallel_loops(scan(tree, prog, params))
    if name == "multiscale_interp":
        return  # an empty pyramid level at this size: no C (test_cbackend)
    after = dropped_counts(tree, prog)
    monkeypatch.setattr(cbackend, "sink_unit_stride", lambda t, p: (t, ()))
    assert dropped_counts(tree, prog) == after


@pytest.mark.skipif(not compiler_available(), reason="no C compiler on this machine")
def test_the_example_runs():
    prog = matvec_t()
    got = compile_and_run(matvec_tree(prog), prog, make_store(prog), openmp=False)
    ref = make_store(prog)
    execute_naive(prog, ref)
    np.testing.assert_array_equal(got["y"], ref["y"])
