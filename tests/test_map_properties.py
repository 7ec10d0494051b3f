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


# ---------------------------------------------------------------------------
# counting a per-tile relation's image at one tile

#: ``{ _tile[o0, o1] -> A[a0, a1] }`` with one symbolic tile size ``T``.
TILE_SPACE = MapSpace("_tile", ("o0", "o1"), "A", ("a0", "a1"), ("T",))
TILE_IN, TILE_OUT = ("o0", "o1"), ("a0", "a1")
A_RANGE = range(-8, 25)  # holds every out point any generated piece allows


@st.composite
def box_pieces(draw, extras=True):
    """A footprint-shaped piece: per out dim, a window near one in dim
    (a coefficient > 1 on the out dim now and then); with ``extras``,
    sometimes a guard on the tile and sometimes an equality
    ``g*a = o + c`` with ``g > 1``."""
    cons = []
    for a in TILE_OUT:
        o = LinExpr.var(draw(st.sampled_from(TILE_IN)))
        coeff = draw(st.sampled_from((1, 1, 2, 3)))
        lo, width = draw(st.integers(-3, 3)), draw(st.integers(-1, 3))
        cons.append(Constraint.ge(LinExpr.var(a) * coeff, o + lo))
        cons.append(Constraint.le(LinExpr.var(a), o + LinExpr.var("T") + width))
        cons.append(Constraint.ge(LinExpr.var(a), -8))
    if extras and draw(st.booleans()):
        o = LinExpr.var(draw(st.sampled_from(TILE_IN)))
        cons.append(Constraint.ge(o, draw(st.integers(0, 6))))
    if extras and draw(st.booleans()):
        a = LinExpr.var(draw(st.sampled_from(TILE_OUT)))
        o = LinExpr.var(draw(st.sampled_from(TILE_IN)))
        g = draw(st.integers(2, 3))
        cons.append(Constraint.eq(a * g - o - draw(st.integers(-2, 2))))
    return BasicMap(TILE_SPACE, cons)


@st.composite
def coupled_pieces(draw):
    """A box piece cut by a constraint coupling both out dims; no guard
    or equality, so no tile makes it obviously empty."""
    piece = draw(box_pieces(extras=False))
    a0, a1 = LinExpr.var("a0"), LinExpr.var("a1")
    o = LinExpr.var(draw(st.sampled_from(TILE_IN)))
    k, c = draw(st.sampled_from((1, -1, 2))), draw(st.integers(0, 6))
    cut = Constraint.le(a0 + a1 * k, o * 2 + c)
    return BasicMap(TILE_SPACE, list(piece.constraints) + [cut])


tile_points = st.fixed_dictionaries(
    {"o0": st.integers(0, 8), "o1": st.integers(0, 8), "T": st.integers(1, 4)}
)


def _brute_image(m, point):
    count = 0
    for a0, a1 in itertools.product(A_RANGE, repeat=2):
        binding = dict(point, a0=a0, a1=a1)
        if any(all(c.satisfied_by(binding) for c in p.constraints) for p in m.pieces):
            count += 1
    return count


def _counted(m, point):
    """``footprint_size`` at ``point`` and the counter it moved."""
    from repro import obs
    from repro.core.footprint import footprint_size

    origin = {d: point[d] for d in TILE_IN}
    with obs.collect() as report:
        n = footprint_size(m, origin, {"T": point["T"]})
    paths = {k.rsplit(".", 1)[1] for k in report.counters if k.startswith("footprint.count.")}
    return n, paths


def _image(m, point):
    return m.fix_params({"T": point["T"]}).image_of_point(point).count_points()


@settings(max_examples=60, deadline=None)
@given(st.lists(box_pieces(), min_size=1, max_size=4), tile_points)
def test_a_union_of_boxes_is_counted_in_closed_form(pieces, point):
    m = Map(TILE_SPACE, pieces)
    n, paths = _counted(m, point)
    assert paths == {"closed_form"}
    assert n == _image(m, point) == _brute_image(m, point)


@settings(max_examples=40, deadline=None)
@given(coupled_pieces(), st.lists(box_pieces(), max_size=2), tile_points)
def test_a_coupled_piece_is_enumerated(coupled, boxes, point):
    m = Map(TILE_SPACE, [coupled] + boxes)
    n, paths = _counted(m, point)
    assert paths == {"enumerated"}
    assert n == _image(m, point) == _brute_image(m, point)
