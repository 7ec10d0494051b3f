"""Parametric specialization: exactness, commuting laws and footprint parity.

The parametric-footprint engine rests on one algebraic fact: substituting an
integer for a parameter commutes with every Presburger operation the
footprint chains use.  These tests check the law ``op(S).specialize(b) ==
op(S.specialize(b))`` on randomized sets/maps, and then the end-to-end
consequence — the parametric path produces byte-identical generated code on
every workload.
"""

from __future__ import annotations

import random

import pytest

from repro import CompileOptions
from repro.presburger import memo
from repro.presburger.basic_map import BasicMap
from repro.presburger.basic_set import BasicSet
from repro.presburger.constraint import GE, Constraint
from repro.presburger.linexpr import LinExpr
from repro.presburger.map_ import Map
from repro.presburger.set_ import Set, _count_boxes
from repro.presburger.space import MapSpace, SetSpace
from repro.presburger.enumerate import enumerate_set_points

PARAM = "T"


def _random_set(rng: random.Random, dims, with_param: bool) -> Set:
    """A random conjunction of small affine constraints over ``dims``.

    Every dimension gets finite box bounds so the sets stay enumerable;
    extra coupled constraints (optionally mentioning the parameter) make
    the structural cases non-trivial.
    """
    params = (PARAM,) if with_param else ()
    space = SetSpace("S", dims, params)
    cs = []
    for d in dims:
        lo = rng.randint(-3, 2)
        cs.append(Constraint(LinExpr({d: 1}, -lo), GE))
        cs.append(Constraint(LinExpr({d: -1, PARAM: 1} if with_param else {d: -1}, rng.randint(2, 6)), GE))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(list(dims), 2) if len(dims) > 1 else (dims[0], dims[0])
        coeffs = {a: rng.choice((-2, -1, 1, 2))}
        coeffs[b] = coeffs.get(b, 0) + rng.choice((-1, 1))
        if with_param and rng.random() < 0.5:
            coeffs[PARAM] = rng.choice((-1, 1))
        cs.append(Constraint(LinExpr(coeffs, rng.randint(-2, 4)), GE))
    pieces = [BasicSet(space, cs)]
    return Set(space, pieces)


def _random_map(rng: random.Random, in_dims, out_dims, with_param: bool) -> Map:
    params = (PARAM,) if with_param else ()
    space = MapSpace("A", in_dims, "B", out_dims, params)
    cs = []
    for d in in_dims + out_dims:
        lo = rng.randint(-2, 1)
        cs.append(Constraint(LinExpr({d: 1}, -lo), GE))
        cs.append(Constraint(LinExpr({d: -1}, rng.randint(2, 5)), GE))
    for o in out_dims:
        i = rng.choice(in_dims)
        shift = {PARAM: 1} if with_param and rng.random() < 0.5 else {}
        coeffs = {o: 1, i: -1, **shift}
        cs.append(Constraint(LinExpr(coeffs, rng.randint(-1, 1)), GE))
        coeffs_neg = {o: -1, i: 1, **{k: -v for k, v in shift.items()}}
        cs.append(Constraint(LinExpr(coeffs_neg, rng.randint(1, 3)), GE))
    return Map(space, [BasicMap(space, cs)])


def _sets_equal(a: Set, b: Set) -> bool:
    return a.is_equal(b)


class TestSpecializeExactness:
    def test_specialize_matches_fix_params_semantically(self):
        rng = random.Random(100)
        for _ in range(50):
            s = _random_set(rng, ("i", "j"), with_param=True)
            n = rng.randint(1, 6)
            spec = s.specialize({PARAM: n})
            fixed = s.fix_params({PARAM: n})
            assert spec.space.params == ()
            assert spec.is_equal(fixed)

    def test_specialize_no_params_is_identity(self):
        rng = random.Random(101)
        s = _random_set(rng, ("i",), with_param=False)
        assert s.specialize({PARAM: 4}) is s

    def test_basic_map_specialize_drops_param(self):
        rng = random.Random(102)
        m = _random_map(rng, ("i",), ("o",), with_param=True)
        spec = m.specialize({PARAM: 3})
        assert spec.space.params == ()
        assert spec.is_equal(m.fix_params({PARAM: 3}))


class TestSpecializeCommutes:
    """op(S).specialize(T=n) == op(S.specialize(T=n))."""

    def test_intersect_commutes(self):
        rng = random.Random(7)
        for _ in range(40):
            a = _random_set(rng, ("i", "j"), with_param=True)
            b = _random_set(rng, ("i", "j"), with_param=True)
            n = rng.randint(1, 5)
            lhs = a.intersect(b).specialize({PARAM: n})
            rhs = a.specialize({PARAM: n}).intersect(b.specialize({PARAM: n}))
            assert _sets_equal(lhs, rhs)

    def test_project_out_commutes(self):
        rng = random.Random(8)
        for _ in range(40):
            s = _random_set(rng, ("i", "j"), with_param=True)
            n = rng.randint(1, 5)
            lhs = Set(
                SetSpace("S", ("i",), ()),
                [p.project_out(("j",)) for p in s.specialize({PARAM: n}).pieces],
            )
            rhs = Set(
                SetSpace("S", ("i",), (PARAM,)),
                [p.project_out(("j",)) for p in s.pieces],
            ).specialize({PARAM: n})
            assert _sets_equal(lhs, rhs)

    def test_apply_range_commutes(self):
        rng = random.Random(9)
        for _ in range(40):
            m1 = _random_map(rng, ("i",), ("k",), with_param=True)
            m2 = _random_map(rng, ("k",), ("o",), with_param=False)
            n = rng.randint(1, 5)
            m2p = Map(m2.space.with_params((PARAM,)), [
                BasicMap(p.space.with_params((PARAM,)), p.constraints)
                for p in m2.pieces
            ])
            lhs = m1.apply_range(m2p).specialize({PARAM: n})
            rhs = m1.specialize({PARAM: n}).apply_range(m2)
            assert lhs.is_equal(rhs)

    def test_dedupe_and_hull_preserve_points_under_specialize(self):
        rng = random.Random(10)
        for _ in range(25):
            s = _random_set(rng, ("i", "j"), with_param=True)
            n = rng.randint(1, 5)
            conc = s.specialize({PARAM: n})
            for op in ("dedupe", "coalesce"):
                lhs = getattr(s, op)().specialize({PARAM: n})
                assert _sets_equal(lhs, getattr(conc, op)())


class TestCountFastPath:
    def test_union_of_overlapping_boxes_exact(self):
        rng = random.Random(20)
        for _ in range(60):
            dims = tuple(f"d{i}" for i in range(rng.randint(1, 3)))
            space = SetSpace("S", dims, ())
            pieces = []
            for _ in range(rng.randint(1, 5)):
                cs = []
                for d in dims:
                    lo = rng.randint(-4, 6)
                    hi = lo + rng.randint(-1, 5)
                    cs.append(Constraint(LinExpr({d: 1}, -lo), GE))
                    cs.append(Constraint(LinExpr({d: -1}, hi), GE))
                pieces.append(BasicSet(space, cs))
            s = Set(space, pieces)
            fast = _count_boxes(s, {})
            slow = sum(1 for _ in enumerate_set_points(s, {}))
            assert fast == slow

    def test_strided_decomposition_exact(self):
        # bilateral-grid shape: two independent coupled pairs.
        rng = random.Random(21)
        for _ in range(40):
            dims = ("h", "w", "dh", "dw")
            space = SetSpace("S", dims, ())
            cs = []
            for big, small in (("h", "dh"), ("w", "dw")):
                a = rng.choice((2, 4, 8))
                lo = rng.randint(0, 20)
                hi = lo + rng.randint(0, 15)
                cs.append(Constraint(LinExpr({big: a, small: 1}, -lo), GE))
                cs.append(Constraint(LinExpr({big: -a, small: -1}, hi), GE))
                cs.append(Constraint(LinExpr({big: 1}, 0), GE))
                cs.append(Constraint(LinExpr({big: -1}, 10), GE))
                cs.append(Constraint(LinExpr({small: 1}, 0), GE))
                cs.append(Constraint(LinExpr({small: -1}, a - 1), GE))
            s = Set(space, [BasicSet(space, cs)])
            assert _count_boxes(s, {}) == sum(1 for _ in enumerate_set_points(s, {}))

    def test_count_points_memoized(self):
        memo.clear_all()
        space = SetSpace("S", ("i",), ())
        s = Set(space, [BasicSet(space, [
            Constraint(LinExpr({"i": 1}, 0), GE),
            Constraint(LinExpr({"i": -1}, 9), GE),
        ])])
        assert s.count_points() == 10
        before = memo.stats()["count_points"]["hits"]
        assert s.count_points() == 10
        assert memo.stats()["count_points"]["hits"] == before + 1


ALL_WORKLOADS = [
    ("bilateral_grid", 128),
    ("camera_pipeline", 128),
    ("harris", 128),
    ("local_laplacian", 128),
    ("multiscale_interp", 2048),
    ("unsharp_mask", 128),
    ("2mm", 64),
    ("3mm", 64),
    ("atax", 64),
    ("bicg", 64),
    ("covariance", 64),
    ("doitgen", 16),
    ("gemver", 64),
    ("mvt", 64),
    ("conv2d", 48),
]


@pytest.mark.parametrize("name,size", ALL_WORKLOADS)
def test_parametric_footprint_code_parity(name, size, monkeypatch):
    """The parametric engine must generate byte-identical code on every
    workload — tile selections and C output are the oracle.  The seed
    (per-candidate, direct) path is reached by making
    ``parametric_binding`` decline, as it does for symbolic sizes."""
    from repro.__main__ import _build_workload, _default_tiles
    from repro.codegen import print_tree
    from repro.core import footprint, optimize, tile_shapes

    def compile_once():
        memo.clear_all()
        prog = _build_workload(name, size)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=_default_tiles(name)))
        return (
            print_tree(res.tree, prog, style="openmp"),
            res.fusion_summary(),
            res.tile_sizes,
        )

    try:
        parametric = compile_once()
        for mod in (footprint, tile_shapes):
            monkeypatch.setattr(mod, "parametric_binding", lambda *a, **k: None)
        seed = compile_once()
    finally:
        memo.clear_all()
    assert seed == parametric


def test_parametric_footprint_memo_reused_across_sizes():
    """Two tile-size candidates share one symbolic footprint computation."""
    from repro.__main__ import _build_workload
    from repro.core import optimize

    try:
        memo.clear_all()
        prog = _build_workload("unsharp_mask", 128)
        optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        first = memo.stats()["tile_footprint"]["misses"]
        optimize(prog, CompileOptions(target="cpu", tile_sizes=(32, 32)))
        second = memo.stats()["tile_footprint"]["misses"]
        # The second candidate misses on its concrete keys but reuses the
        # symbolic result: strictly fewer fresh computations than the first.
        assert second - first < first
    finally:
        memo.clear_all()
