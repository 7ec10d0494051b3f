"""Property-based tests for the presburger algebra.

Strategy: generate small random conjunctions of affine constraints over a
couple of dimensions inside a bounded universe, then check the classic set
algebra laws point-wise against brute-force membership over the universe.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.presburger import BasicSet, Constraint, LinExpr, Set, SetSpace

pytestmark = pytest.mark.slow

DIMS = ("x", "y")
UNIVERSE_LO, UNIVERSE_HI = -4, 5
SPACE = SetSpace("P", DIMS)


def all_points():
    rng = range(UNIVERSE_LO, UNIVERSE_HI + 1)
    for x, y in itertools.product(rng, rng):
        yield {"x": x, "y": y}


@st.composite
def linexprs(draw):
    cx = draw(st.integers(-3, 3))
    cy = draw(st.integers(-3, 3))
    c = draw(st.integers(-6, 6))
    return LinExpr({"x": cx, "y": cy}, c)


@st.composite
def constraints(draw):
    expr = draw(linexprs())
    kind = draw(st.sampled_from(["ge", "eq"]))
    return Constraint.ge(expr) if kind == "ge" else Constraint.eq(expr)


@st.composite
def bounded_basic_sets(draw):
    bounds = [
        Constraint.ge(LinExpr.var(d), UNIVERSE_LO) for d in DIMS
    ] + [Constraint.le(LinExpr.var(d), UNIVERSE_HI) for d in DIMS]
    extra = draw(st.lists(constraints(), min_size=0, max_size=3))
    return BasicSet(SPACE, bounds + extra)


@st.composite
def bounded_sets(draw):
    pieces = draw(st.lists(bounded_basic_sets(), min_size=1, max_size=3))
    return Set(SPACE, pieces)


def brute_membership(s):
    return {tuple(p[d] for d in DIMS) for p in all_points() if s.contains(p)}


@settings(max_examples=25, deadline=None)
@given(bounded_sets(), bounded_sets())
def test_union_matches_pointwise(a, b):
    assert brute_membership(a.union(b)) == brute_membership(a) | brute_membership(b)


@settings(max_examples=25, deadline=None)
@given(bounded_sets(), bounded_sets())
def test_intersection_matches_pointwise(a, b):
    assert brute_membership(a.intersect(b)) == brute_membership(a) & brute_membership(b)


@settings(max_examples=25, deadline=None)
@given(bounded_sets(), bounded_sets())
def test_subtraction_matches_pointwise(a, b):
    assert brute_membership(a.subtract(b)) == brute_membership(a) - brute_membership(b)


@settings(max_examples=20, deadline=None)
@given(bounded_sets())
def test_self_subtraction_is_empty(a):
    assert a.subtract(a).is_empty()


@settings(max_examples=20, deadline=None)
@given(bounded_sets())
def test_coalesce_preserves_points(a):
    assert brute_membership(a.coalesce()) == brute_membership(a)


@settings(max_examples=20, deadline=None)
@given(bounded_sets())
def test_emptiness_agrees_with_brute_force(a):
    assert a.is_empty() == (len(brute_membership(a)) == 0)


@settings(max_examples=20, deadline=None)
@given(bounded_sets())
def test_count_points_agrees_with_brute_force(a):
    assert a.count_points() == len(brute_membership(a))


# subtraction-based subset probes on 3-piece unions are the most
# expensive operation in the suite; a handful of examples suffices
@settings(max_examples=6, deadline=None)
@given(bounded_sets(), bounded_sets())
def test_subset_reflexivity_and_union_bound(a, b):
    assert a.is_subset(a)
    u = a.union(b)
    assert a.is_subset(u)
    assert b.is_subset(u)


@settings(max_examples=20, deadline=None)
@given(bounded_basic_sets())
def test_projection_is_exact_shadow(bset):
    """FM projection onto x contains exactly the xs of integer points.

    Exactness holds here because y's coefficients are small and the
    emitted points are verified; we check soundness (superset) always and
    exactness via enumeration.
    """
    proj = bset.project_out(["y"])
    xs = {p["x"] for p in all_points() if bset.contains(p)}
    for x in xs:
        assert proj.contains({"x": x})


@settings(max_examples=20, deadline=None)
@given(bounded_sets())
def test_sample_is_member(a):
    pt = a.sample()
    if pt is None:
        assert a.is_empty()
    else:
        assert a.contains(pt)


# ---------------------------------------------------------------------------
# fast-path equivalence: the box shortcut and the memo tables must be
# unobservable — identical results to the generic slow path.


@st.composite
def box_basic_sets(draw):
    """Sets whose every constraint is a single-symbol bound: the shape that
    takes the FM box fast path."""
    cons = [
        Constraint.ge(LinExpr.var(d), UNIVERSE_LO) for d in DIMS
    ] + [Constraint.le(LinExpr.var(d), UNIVERSE_HI) for d in DIMS]
    for d in DIMS:
        if draw(st.booleans()):
            cons.append(Constraint.ge(LinExpr.var(d), draw(st.integers(-6, 6))))
        if draw(st.booleans()):
            cons.append(Constraint.le(LinExpr.var(d), draw(st.integers(-6, 6))))
    return BasicSet(SPACE, cons)


def _reference_eliminate(cons, sym):
    """The generic pairwise FM loop, with no fast paths."""
    lowers, uppers, rest = [], [], []
    for c in cons:
        a = c.coeff(sym)
        if a == 0:
            rest.append(c)
        elif a > 0:
            lowers.append((a, c))
        else:
            uppers.append((-a, c))
    out = list(rest)
    for al, cl in lowers:
        for au, cu in uppers:
            el = cl.expr - LinExpr({sym: al})
            eu = cu.expr + LinExpr({sym: au})
            out.append(Constraint(el * au + eu * al, ">="))
    return [c for c in out if not c.is_trivially_true()]


@settings(max_examples=30, deadline=None)
@given(box_basic_sets())
def test_box_fast_path_equals_generic_elimination(bset):
    from repro.presburger.fm import eliminate_symbol

    fast = eliminate_symbol(list(bset.constraints), "y")
    slow = _reference_eliminate(list(bset.constraints), "y")
    # Identical up to deduplication of repeated constraints.
    assert list(dict.fromkeys(slow)) == fast

    proj = bset.project_out(["y"])
    xs = {p["x"] for p in all_points() if bset.contains(p)}
    for x in range(UNIVERSE_LO, UNIVERSE_HI + 1):
        assert proj.contains({"x": x}) == (x in xs)


@settings(max_examples=20, deadline=None)
@given(bounded_basic_sets(), bounded_basic_sets())
def test_memoized_ops_equal_cold_results(a, b):
    from repro.presburger import memo

    warm_i = a.intersect(b)
    warm_p = a.project_out(["y"])
    warm_e = a.is_empty()
    memo.clear_all()
    cold_a = BasicSet(a.space, a.constraints)
    cold_b = BasicSet(b.space, b.constraints)
    cold_i = cold_a.intersect(cold_b)
    cold_p = cold_a.project_out(["y"])
    assert cold_i.space == warm_i.space
    assert cold_i.constraints == warm_i.constraints
    assert cold_p.space == warm_p.space
    assert cold_p.constraints == warm_p.constraints
    assert cold_a.is_empty() == warm_e


@settings(max_examples=20, deadline=None)
@given(bounded_basic_sets())
def test_pruned_feasibility_agrees_with_brute_force(bset):
    from repro.presburger.fm import rational_feasible

    has_integer_point = any(bset.contains(p) for p in all_points())
    feasible = rational_feasible(list(bset.constraints))
    # Rational feasibility over-approximates integer membership; inside a
    # bounded box an integer witness forces rational feasibility.
    if has_integer_point:
        assert feasible


# ---------------------------------------------------------------------------
# soundness where the search is weakest: equalities with coefficients 2-5,
# a free parameter and dims bounded by nothing but those equalities.

BOX_DIMS = ("u0", "u1")
IMAGE_DIMS = ("x0", "x1")
PARAM_RANGE = range(-3, 4)  # the parameter values brute force tries
COEFFS = st.sampled_from([-5, -4, -3, -2, 0, 2, 3, 4, 5])


@st.composite
def box_images(draw):
    """A small box over ``u`` and its image under an integer affine map:
    ``c_j * x_j == sum_i a_ji * u_i + b_j * N + d_j`` with ``c_j`` in 2-5,
    plus up to two extra inequalities over every symbol.  The ``x`` have
    no bounds of their own and ``N`` none at all, so each point of the set
    is a box point and an ``N`` for which every ``x_j`` comes out whole."""
    n_box = draw(st.integers(1, 2))
    n_image = draw(st.integers(1, 2))
    box = {}
    cons = []
    for u in BOX_DIMS[:n_box]:
        lo = draw(st.integers(-2, 1))
        box[u] = range(lo, lo + draw(st.integers(0, 3)) + 1)
        cons += [Constraint.ge(LinExpr.var(u), lo), Constraint.le(LinExpr.var(u), box[u][-1])]
    image = []
    for x in IMAGE_DIMS[:n_image]:
        c = draw(st.integers(2, 5))
        rhs = LinExpr({u: draw(COEFFS) for u in box} | {"N": draw(COEFFS)},
                      draw(st.integers(-3, 3)))
        image.append((x, c, rhs))
        cons.append(Constraint.eq(LinExpr({x: c}) - rhs))
    syms = list(box) + [x for x, _, _ in image] + ["N"]
    for _ in range(draw(st.integers(0, 2))):
        expr = LinExpr({s: draw(st.integers(-3, 3)) for s in syms}, draw(st.integers(-6, 6)))
        cons.append(Constraint.ge(expr))
    space = SetSpace("I", tuple(box) + tuple(x for x, _, _ in image), ("N",))
    return BasicSet(space, cons), box, image


def _image_points(bset, box, image):
    """Brute force over the box and ``PARAM_RANGE``: the set's points there."""
    for values in itertools.product(*box.values()):
        for n in PARAM_RANGE:
            point = dict(zip(box, values), N=n)
            for x, c, rhs in image:
                q, r = divmod(rhs.eval(point), c)
                if r:
                    break
                point[x] = q
            else:
                if bset.contains(point):
                    yield point


@settings(max_examples=60, deadline=None)
@given(box_images())
def test_emptiness_and_sample_are_sound_on_box_images(drawn):
    """"Empty" only when brute force finds no point, and a sample is a
    member.  An undecided search is allowed: it claims neither."""
    from repro.presburger import FeasibilityUndecided, memo

    bset, box, image = drawn
    witness = next(_image_points(bset, box, image), None)
    memo.clear_all()
    if bset.is_empty():
        assert witness is None, f"{bset} holds {witness}"
    try:
        point = bset.sample()
    except FeasibilityUndecided:
        return
    if point is None:
        assert witness is None, f"{bset} holds {witness}"
    else:
        assert bset.contains(point), f"{point} is not in {bset}"


def assert_one_search(bset):
    """``is_empty`` is whether ``sample`` finds no point, and a search that
    gives up reads as non-empty."""
    from repro.presburger import FeasibilityUndecided

    try:
        point = bset.sample()
    except FeasibilityUndecided:
        assert not bset.is_empty(), bset
        return
    assert (point is None) == bset.is_empty(), bset
    assert point is None or bset.contains(point), (bset, point)


def test_emptiness_and_sample_agree_where_two_orders_disagreed():
    # Empty: x0 is whole only for N and u1 of one parity, x1 only for
    # them of opposite parity.  A search over the dims first proves it,
    # one in constraint order gives up.
    from repro.presburger import parse_set

    s = parse_set(
        "[N] -> { I[u0, u1, x0, x1] : 1 <= u0 <= 2 and -2 <= u1 <= 1 and "
        "2*x0 = 3*N + 2*u0 - 5*u1 - 2 and 4*x1 = 3*N + 2*u0 + 5*u1 - 3 }"
    )
    assert_one_search(s.pieces[0])


@settings(max_examples=60, deadline=None)
@given(box_images())
def test_emptiness_and_sample_agree_on_box_images(drawn):
    from repro.presburger import memo

    memo.clear_all()
    assert_one_search(drawn[0])


@settings(max_examples=60, deadline=None)
@given(box_images())
def test_enumeration_is_brute_force_on_box_images(drawn):
    """For each ``N``, ``enumerate_points`` yields exactly the brute-force
    points, in lexicographic dim order, non-unit coefficients and all."""
    from repro.presburger import enumerate_points

    bset, box, image = drawn
    dims = bset.space.dims
    brute = list(_image_points(bset, box, image))
    for n in PARAM_RANGE:
        expected = sorted(tuple(p[d] for d in dims) for p in brute if p["N"] == n)
        got = [tuple(p[d] for d in dims) for p in enumerate_points(bset, {"N": n})]
        assert got == expected, (bset, n)
