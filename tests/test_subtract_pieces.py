"""Presburger differences stay small: counts, not clocks.

``Set.subtract`` cuts each piece of the minuend by each piece of the
subtrahend in turn, and one cut can split a piece into as many pieces as
the cutting piece has constraints.  Before pieces without a rational point
were dropped as they appeared, the property test
``test_subset_reflexivity_and_union_bound`` under ``--hypothesis-seed=2``
built a 435,456-piece difference (``SEED_2``, 3 pieces minus 6) and took
minutes; the 3-D one-parameter case here passed 200,000 pieces, and every
other case below held 16 to 3,888.  The peak is the largest number of
pieces the difference holds after any prefix of the subtrahend's pieces,
which is what ``subtract`` holds after each of its steps.  A bound that
trips means the blow-up came back; do not raise it to make the test pass.
"""

import itertools

import pytest

from repro.presburger import BasicSet, Constraint, LinExpr, Set, SetSpace

#: The most pieces a difference below may hold after any step, per piece
#: of its minuend (the largest reads 17 for 6).
PEAK_PER_PIECE = 4

# -- the property test's universe: 2-D, inside [-4, 5]^2 --------------------

SPACE = SetSpace("P", ("x", "y"))
LO, HI = -4, 5


def _piece(*extra):
    """A piece as ``bounded_basic_sets`` draws it: the universe box, then
    ``extra``, each ``(coeffs, const, kind)`` for ``coeffs . (x, y) +
    const >= 0`` (``ge``) or ``== 0`` (``eq``)."""
    box = [Constraint.ge(LinExpr.var(d), LO) for d in ("x", "y")] + [
        Constraint.le(LinExpr.var(d), HI) for d in ("x", "y")
    ]
    rows = [
        (Constraint.ge if kind == "ge" else Constraint.eq)(LinExpr(coeffs, const))
        for coeffs, const, kind in extra
    ]
    return BasicSet(SPACE, box + rows)


def _set(*pieces):
    return Set(SPACE, [_piece(*extra) for extra in pieces])


#: ``(a, b)`` of the example under seed 2 that built 435,456 pieces.
SEED_2 = (
    _set(
        (),
        (({"x": -1}, -5, "ge"), ({"x": 3, "y": 1}, -6, "ge"),
         ({"x": -2, "y": 1}, 6, "eq")),
        (({"x": 1, "y": 2}, -3, "eq"), ({"x": -1, "y": 2}, -5, "ge"),
         ({"y": 1}, 5, "eq")),
    ),
    _set(
        (({"x": 1, "y": -1}, -4, "eq"), ({"x": 3, "y": -1}, -2, "eq"),
         ({"x": 2, "y": -3}, -1, "ge")),
        (({"x": -1, "y": -3}, -4, "ge"), ({"x": -1, "y": -3}, 5, "eq")),
        (({"x": 2, "y": -1}, 4, "eq"), ({"x": 1, "y": 1}, -2, "ge"),
         ({"x": 3, "y": 2}, -2, "ge")),
    ),
)

#: Two more of seed 2's six examples: 1,536 and 2,016 pieces before.
SEED_2_OTHERS = [
    (
        _set(
            (({"x": 2, "y": 1}, 1, "eq"), ({"x": -1, "y": 3}, 1, "ge"),
             ({"y": -1}, 0, "ge")),
            (({"y": 1}, 5, "eq"),),
        ),
        _set((), ()),
    ),
    (
        _set(()),
        _set(
            (({"x": -2, "y": 3}, 0, "ge"), ({"x": -1, "y": -3}, -4, "ge")),
            (),
            (({"x": -2, "y": 1}, -6, "ge"), ({"x": 1, "y": -3}, -6, "eq")),
        ),
    ),
]


def _points_2d(s):
    rng = range(LO, HI + 1)
    return {(x, y) for x, y in itertools.product(rng, rng) if s.contains({"x": x, "y": y})}


# -- a 3-D, one-parameter variant: the shape of a legality query -------------

SPACE_3D = SetSpace("Q", ("x", "y", "z"), ("N",))
X, Y, Z, N = (LinExpr.var(v) for v in ("x", "y", "z", "N"))


def _piece_3d(*extra):
    box = [Constraint.ge(v, 0) for v in (X, Y, Z)] + [
        Constraint.le(v, N) for v in (X, Y, Z)
    ]
    return BasicSet(SPACE_3D, box + list(extra))


A_3D = Set(SPACE_3D, [
    _piece_3d(Constraint.le(X + Y, N), Constraint.ge(Z, 1)),
    _piece_3d(Constraint.eq(Y, 2 * Z), Constraint.ge(X - Z, 0)),
    _piece_3d(Constraint.ge(X + Y + Z, N), Constraint.le(X - Y, 1),
              Constraint.ge(X - Y, -1)),
])
B_3D = Set(SPACE_3D, [
    _piece_3d(Constraint.le(2 * X + Z, N), Constraint.ge(Y - X, 0)),
    _piece_3d(Constraint.eq(X + Z, N), Constraint.le(Y, 3)),
    _piece_3d(Constraint.ge(3 * Y - 2 * Z, 1), Constraint.le(X + 2 * Y, N + 2),
              Constraint.ge(Z - X, 2)),
])


def _points_3d(s, n=4):
    fixed = s.fix_params({"N": n})
    rng = range(0, n + 1)
    return {
        p for p in itertools.product(rng, rng, rng)
        if fixed.contains(dict(zip(("x", "y", "z"), p)))
    }


def _peak(minuend, subtrahend):
    return max(
        len(minuend.subtract(Set(subtrahend.space, subtrahend.pieces[:k])).pieces)
        for k in range(len(subtrahend.pieces) + 1)
    )


def _cases():
    for i, (a, b) in enumerate([SEED_2] + SEED_2_OTHERS):
        u = a.union(b)
        for name, x, y in (("a-u", a, u), ("b-u", b, u), ("u-a", u, a), ("u-b", u, b)):
            yield pytest.param(x, y, _points_2d, id=f"seed2-{i}-{name}")
    u = A_3D.union(B_3D)
    for name, x, y in (("a-u", A_3D, u), ("b-u", B_3D, u), ("u-a", u, A_3D), ("u-b", u, B_3D)):
        yield pytest.param(x, y, _points_3d, id=f"3d-{name}")


@pytest.mark.parametrize("minuend,subtrahend,points", list(_cases()))
def test_a_difference_stays_small_and_exact(minuend, subtrahend, points):
    assert _peak(minuend, subtrahend) <= PEAK_PER_PIECE * len(minuend.pieces)
    expected = points(minuend) - points(subtrahend)
    assert points(minuend.subtract(subtrahend)) == expected
    assert minuend.is_subset(subtrahend) == (not expected)


def test_is_subset_stops_at_the_first_piece_outside(monkeypatch):
    a, b = SEED_2
    u = a.union(b)
    calls = []
    subtract = Set.subtract
    monkeypatch.setattr(
        Set, "subtract", lambda self, other: calls.append(self) or subtract(self, other)
    )
    # u's first piece is a's universe piece, which b does not cover.
    assert not u.is_subset(b)
    assert len(calls) == 1
