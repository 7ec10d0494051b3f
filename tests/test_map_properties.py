"""Property-based tests for map algebra (composition, reversal, images)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.presburger import (
    BasicMap,
    Constraint,
    LinExpr,
    Map,
    MapSpace,
)

pytestmark = pytest.mark.slow

LO, HI = -3, 4
IN_DIMS = ("x",)
OUT_DIMS = ("y",)
SPACE = MapSpace("S", IN_DIMS, "T", OUT_DIMS)


def all_pairs():
    rng = range(LO, HI + 1)
    return itertools.product(rng, rng)


@st.composite
def affine_maps(draw):
    """y = a*x + b restricted to a random sub-box."""
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(-3, 3))
    lo = draw(st.integers(LO, HI - 1))
    hi = draw(st.integers(lo, HI))
    cons = [
        Constraint.eq(LinExpr.var("y") - (LinExpr.var("x") * a + b)),
        Constraint.ge(LinExpr.var("x"), lo),
        Constraint.le(LinExpr.var("x"), hi),
        Constraint.ge(LinExpr.var("y"), LO * 3),
        Constraint.le(LinExpr.var("y"), HI * 3),
    ]
    return Map(SPACE, [BasicMap(SPACE, cons)])


def graph_of(m):
    pts = set()
    for x, y in itertools.product(range(LO * 3, HI * 3 + 1), repeat=2):
        if any(
            all(c.satisfied_by({"x": x, "y": y}) for c in bm.constraints)
            for bm in m.pieces
        ):
            pts.add((x, y))
    return pts


@settings(max_examples=25, deadline=None)
@given(affine_maps())
def test_reverse_swaps_the_graph(m):
    g = graph_of(m)
    rev = m.reverse()
    assert graph_of_reversed(rev) == {(b, a) for a, b in g}
    # and reversing twice restores the original graph
    assert graph_of(rev.reverse()) == g


def graph_of_reversed(m):
    pts = set()
    for x, y in itertools.product(range(LO * 3, HI * 3 + 1), repeat=2):
        binding = {m.space.in_dims[0]: x, m.space.out_dims[0]: y}
        if any(
            all(c.satisfied_by(binding) for c in bm.constraints)
            for bm in m.pieces
        ):
            pts.add((x, y))
    return pts


@settings(max_examples=25, deadline=None)
@given(affine_maps())
def test_domain_and_range_project_graph(m):
    g = graph_of(m)
    dom = {a for a, _ in g}
    rng = {b for _, b in g}
    for a in dom:
        assert m.domain().contains({"x": a})
    for b in rng:
        assert m.range().contains({"y": b})


#: Dim names the second map of a composition is given: apart from the
#: first's, the first's own (left un-renamed), and an out-dim named like
#: the first's in-dim.
SECOND_MAP_DIMS = (("u", "v"), ("x", "y"), ("u", "x"))


@settings(max_examples=20, deadline=None)
@given(affine_maps(), affine_maps())
def test_composition_matches_pointwise(f, g):
    """(f . g)(x) = g's image of f's image, pointwise."""
    gf = graph_of(f)
    gg = graph_of(g)
    expected = {
        (a, c) for a, b in gf for b2, c in gg if b == b2
    }
    for u, v in SECOND_MAP_DIMS:
        g_renamed = Map(
            MapSpace("T", (u,), "U", (v,)),
            [
                BasicMap(
                    MapSpace("T", (u,), "U", (v,)),
                    [c.rename({"x": u, "y": v}) for c in bm.constraints],
                )
                for bm in g.pieces
            ],
        )
        comp = f.apply_range(g_renamed)
        got = set()
        in_dim = comp.space.in_dims[0]
        out_dim = comp.space.out_dims[0]
        for x, z in itertools.product(range(LO * 3, HI * 3 + 1), repeat=2):
            if any(
                all(c.satisfied_by({in_dim: x, out_dim: z}) for c in bm.constraints)
                for bm in comp.pieces
            ):
                got.add((x, z))
        assert got == expected, (u, v)


@settings(max_examples=20, deadline=None)
@given(affine_maps())
def test_image_of_point_matches_graph(m):
    g = graph_of(m)
    for a in {a for a, _ in g}:
        img = m.image_of_point({"x": a})
        (dim,) = img.space.dims
        expected = {b for a2, b in g if a2 == a}
        got = {p[dim] for p in _enum(img)}
        assert got == expected


def _enum(s):
    from repro.presburger import enumerate_set_points

    return list(enumerate_set_points(s))
