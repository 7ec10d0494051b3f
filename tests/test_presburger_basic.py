"""Unit tests for the presburger substrate: expressions, constraints, sets."""

import pytest

from repro.presburger import (
    BasicMap,
    BasicSet,
    Constraint,
    LinExpr,
    SetSpace,
    MapSpace,
    V,
    parse_map,
    parse_set,
)


class TestLinExpr:
    def test_construction_drops_zero_coeffs(self):
        e = LinExpr({"x": 0, "y": 2}, 3)
        assert e.symbols() == ("y",)
        assert e.const == 3

    def test_arithmetic(self):
        x, y = V("x"), V("y")
        e = 2 * x + y - 3
        assert e.coeff("x") == 2
        assert e.coeff("y") == 1
        assert e.const == -3
        assert (e - e).is_constant()
        assert (e - e).const == 0

    def test_substitute_with_expr(self):
        x, y = V("x"), V("y")
        e = 2 * x + 1
        sub = e.substitute({"x": y + 3})
        assert sub == 2 * y + 7

    def test_substitute_with_int(self):
        e = 2 * V("x") + V("y")
        assert e.substitute({"x": 5}) == V("y") + 10

    def test_rename_onto_a_present_symbol_adds_up(self):
        # A non-injective rename is exact: it agrees with substitute().
        e = V("a") + 2 * V("b") + 5
        assert e.rename({"a": "b"}) == 3 * V("b") + 5
        assert e.rename({"a": "b"}) == e.substitute({"a": V("b")})
        # ... and a cancelling collision leaves the constant alone.
        gone = (V("a") - V("b") + 4).rename({"a": "b"})
        assert gone.is_constant() and gone.const == 4
        # A swap is simultaneous, not sequential.
        assert (V("a") - 2 * V("b")).rename({"a": "b", "b": "a"}) == V("b") - 2 * V("a")

    def test_eval(self):
        e = 3 * V("a") - V("b") + 2
        assert e.eval({"a": 4, "b": 5}) == 9

    def test_equality_and_hash(self):
        assert V("x") + 1 == V("x") + 1
        assert hash(V("x") + 1) == hash(V("x") + 1)
        assert V("x") != V("y")

    def test_immutable(self):
        e = V("x")
        with pytest.raises(AttributeError):
            e.const = 5

    def test_scale_down_exact(self):
        e = 4 * V("x") + 8
        assert e.scale_down_exact(4) == V("x") + 2
        with pytest.raises(ValueError):
            (4 * V("x") + 3).scale_down_exact(4)

    def test_str_roundtrip_sanity(self):
        assert str(V("x") - V("y") + 1) == "x - y + 1"


class TestConstraint:
    def test_normalisation_divides_gcd(self):
        c = Constraint.ge(4 * V("x"), 8)  # 4x - 8 >= 0 -> x - 2 >= 0
        assert c.expr == V("x") - 2

    def test_inequality_constant_tightening(self):
        # 2x - 3 >= 0 over Z is x >= 2, i.e. x - 2 >= 0 after tightening
        c = Constraint.ge(2 * V("x") - 3)
        assert c.expr == V("x") - 2

    def test_infeasible_equality_gcd(self):
        # 2x == 1 has no integer solutions
        c = Constraint.eq(2 * V("x") - 1)
        assert c.is_trivially_false()

    def test_lt_gt_are_integer_strict(self):
        c = Constraint.lt(V("x"), V("y"))
        assert c.satisfied_by({"x": 1, "y": 2})
        assert not c.satisfied_by({"x": 2, "y": 2})

    def test_negation_of_ge(self):
        c = Constraint.ge(V("x"), 3)
        (neg,) = c.negated()
        assert neg.satisfied_by({"x": 2})
        assert not neg.satisfied_by({"x": 3})

    def test_negation_of_eq_is_two_pieces(self):
        c = Constraint.eq(V("x"), 3)
        lo, hi = c.negated()
        assert lo.satisfied_by({"x": 4}) or hi.satisfied_by({"x": 4})
        assert lo.satisfied_by({"x": 2}) or hi.satisfied_by({"x": 2})
        assert not (lo.satisfied_by({"x": 3}) or hi.satisfied_by({"x": 3}))

    def test_unchanged_constraint_is_returned_as_is(self):
        c = Constraint.ge(2 * V("i") - V("N"), 3)
        assert c.rename({"unrelated": "zz"}) is c
        assert c.substitute({"unrelated": 7}) is c
        assert c.rename({"i": "j"}) == Constraint.ge(2 * V("j") - V("N"), 3)


class TestBasicSet:
    def rect(self, w=4, h=4):
        return parse_set(
            "{ S[i, j] : 0 <= i < %d and 0 <= j < %d }" % (w, h)
        ).pieces[0]

    def test_contains(self):
        s = self.rect()
        assert s.contains({"i": 0, "j": 3})
        assert not s.contains({"i": 4, "j": 0})

    def test_is_empty(self):
        s = parse_set("{ S[i] : i > 3 and i < 3 }").pieces[0]
        assert s.is_empty()
        assert not self.rect().is_empty()

    def test_empty_by_integrality(self):
        # 2i == 1: no integer solution; normalisation yields a falsum piece
        # which the Set constructor drops entirely.
        s = parse_set("{ S[i] : 2*i = 1 }")
        assert s.is_empty()

    def test_integer_gap_emptiness(self):
        # 3 <= 2i <= 3 has no integer point but rational point 1.5
        s = parse_set("{ S[i] : 3 <= 2*i and 2*i <= 3 }").pieces[0]
        assert s.is_empty()

    def test_project_out(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and i <= j < i + 2 }").pieces[0]
        proj = s.project_out(["j"])
        assert proj.space.dims == ("i",)
        assert proj.contains({"i": 0})
        assert proj.contains({"i": 3})
        assert not proj.contains({"i": 4})

    def test_sample_and_count(self):
        s = self.rect(3, 5)
        pt = s.sample()
        assert pt is not None and s.contains(pt)
        assert s.count_points() == 15

    def test_subset(self):
        small = self.rect(2, 2)
        big = self.rect(4, 4)
        assert small.is_subset(big)
        assert not big.is_subset(small)

    def test_fix_params(self):
        s = parse_set("[N] -> { S[i] : 0 <= i < N }").pieces[0]
        fixed = s.fix_params({"N": 7})
        assert fixed.count_points() == 7

    def test_bounding_box(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and i <= j <= i + 2 }").pieces[0]
        box = s.bounding_box()
        assert box["i"] == (0, 3)
        assert box["j"] == (0, 5)

    def test_box_volume(self):
        assert self.rect(4, 6).box_volume() == 24

    def test_simplify_drops_redundant(self):
        s = parse_set("{ S[i] : 0 <= i and i <= 10 and i <= 20 }").pieces[0]
        simp = s.simplify()
        assert len(simp.constraints) == 2


class TestSetAlgebra:
    def test_union_and_membership(self):
        a = parse_set("{ S[i] : 0 <= i < 3 }")
        b = parse_set("{ S[i] : 5 <= i < 8 }")
        u = a.union(b)
        assert u.contains({"i": 1})
        assert u.contains({"i": 6})
        assert not u.contains({"i": 4})

    def test_intersect(self):
        a = parse_set("{ S[i] : 0 <= i < 10 }")
        b = parse_set("{ S[i] : 5 <= i < 20 }")
        inter = a.intersect(b)
        assert inter.is_equal(parse_set("{ S[i] : 5 <= i < 10 }"))

    def test_subtract(self):
        a = parse_set("{ S[i] : 0 <= i < 10 }")
        b = parse_set("{ S[i] : 3 <= i < 5 }")
        diff = a.subtract(b)
        expected = parse_set("{ S[i] : 0 <= i < 3 or 5 <= i < 10 }")
        assert diff.is_equal(expected)

    def test_subtract_everything(self):
        a = parse_set("{ S[i] : 0 <= i < 10 }")
        assert a.subtract(a).is_empty()

    def test_coalesce_removes_contained_pieces(self):
        a = parse_set("{ S[i] : 0 <= i < 10 or 2 <= i < 5 }")
        assert len(a.coalesce().pieces) == 1

    def test_count_points_union_dedup(self):
        a = parse_set("{ S[i] : 0 <= i < 6 or 4 <= i < 8 }")
        assert a.count_points() == 8

    def test_equality_is_semantic(self):
        a = parse_set("{ S[i] : 0 <= i and i <= 4 }")
        b = parse_set("{ S[i] : 0 <= i < 5 }")
        assert a == b


class TestMaps:
    def test_access_relation_range(self):
        m = parse_map("{ S[i] -> A[i + 1] : 0 <= i < 4 }")
        rng = m.range()
        assert rng.contains({"o0": 1})
        assert rng.contains({"o0": 4})
        assert not rng.contains({"o0": 0})

    def test_reverse(self):
        m = parse_map("{ S[i] -> A[i + 1] : 0 <= i < 4 }")
        rev = m.reverse()
        assert rev.space.in_name == "A"
        dom = rev.range()
        assert dom.contains({"i": 0})

    def test_apply_range_compose(self):
        f = parse_map("{ S[i] -> T[i + 1] : 0 <= i < 10 }")
        g = parse_map("{ T[j] -> U[2*j] }")
        h = f.apply_range(g)
        assert h.space.in_name == "S" and h.space.out_name == "U"
        img = h.image_of_point({"i": 3})
        assert img.count_points() == 1
        (out_dim,) = img.space.dims
        assert img.sample()[out_dim] == 8

    def test_intersect_domain(self):
        m = parse_map("{ S[i] -> A[i] }")
        dom = parse_set("{ S[i] : 0 <= i < 3 }")
        clipped = m.intersect_domain(dom)
        assert clipped.range().count_points() == 3

    def test_image_of_point_stencil(self):
        # the conv2d read access of the paper: S2 reads A[h+kh, w+kw]
        m = parse_map(
            "{ S2[h, w, kh, kw] -> A[h + kh, w + kw] : 0 <= kh < 3 and 0 <= kw < 3 }"
        )
        img = m.fix({"h": 2, "w": 2}).range()
        assert img.count_points() == 9
        box = img.bounding_box()
        assert box["o0"] == (2, 4)
        assert box["o1"] == (2, 4)

    def test_map_subtract(self):
        big = parse_map("{ S[i] -> A[i] : 0 <= i < 10 }")
        small = parse_map("{ S[i] -> A[i] : 0 <= i < 4 }")
        diff = big.subtract(small)
        assert diff.is_equal(parse_map("{ S[i] -> A[i] : 4 <= i < 10 }"))

    def test_wrap_arity(self):
        m = parse_map("{ S[i, j] -> A[i] }")
        assert m.space.n_in == 2
        assert m.space.n_out == 1


class TestSpaces:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            SetSpace("S", ("i", "i"))

    def test_map_space_disjoint(self):
        with pytest.raises(ValueError):
            MapSpace("S", ("i",), "T", ("i",))

    def test_constraint_outside_space_rejected(self):
        space = SetSpace("S", ("i",))
        with pytest.raises(ValueError):
            BasicSet(space, [Constraint.ge(V("zz"), 0)])

    def test_outside_symbols_are_named_in_sorted_order(self):
        stray = Constraint.ge(V("zz") + V("i") + V("aa"), 0)
        with pytest.raises(ValueError) as err:
            BasicSet(SetSpace("S", ("i",), ("N",)), [stray])
        assert str(err.value) == (
            f"constraint {stray} mentions ['aa', 'zz'] outside space S[i] "
            "(params ('N',))"
        )
        mspace = MapSpace("S", ("i",), "T", ("o",))
        with pytest.raises(ValueError) as err:
            BasicMap(mspace, [stray])
        assert str(err.value) == (
            f"constraint {stray} mentions ['aa', 'zz'] outside {mspace}"
        )
