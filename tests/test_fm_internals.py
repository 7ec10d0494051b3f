"""White-box tests of the Fourier–Motzkin and feasibility machinery."""

import pytest

from repro import obs
from repro.presburger import Constraint, FeasibilityUndecided, V, parse_set
from repro.presburger.fm import (
    bounds_for_symbol,
    constraint_symbols,
    eliminate_symbol,
    eliminate_symbols,
    find_integer_point,
    implied_by_intervals,
    interval_bounds,
    lex_points,
    lex_tower,
    prune_implied_by_intervals,
    prune_redundant,
    rational_feasible,
    Unbounded,
)


def ge(lhs, rhs=0):
    return Constraint.ge(lhs, rhs)


def le(lhs, rhs):
    return Constraint.le(lhs, rhs)


def eq(lhs, rhs=0):
    return Constraint.eq(lhs, rhs)


class TestEliminateSymbol:
    def test_pairwise_combination(self):
        # x >= y and x <= z  ->  y <= z
        cons = [ge(V("x") - V("y")), ge(V("z") - V("x"))]
        out = eliminate_symbol(cons, "x")
        assert len(out) == 1
        assert out[0].satisfied_by({"y": 2, "z": 5})
        assert not out[0].satisfied_by({"y": 5, "z": 2})

    def test_equality_substitution_unit(self):
        # x == y + 1 and x <= 5  ->  y <= 4
        cons = [eq(V("x") - V("y") - 1), le(V("x"), 5)]
        out = eliminate_symbol(cons, "x")
        assert all(c.coeff("x") == 0 for c in out)
        assert all(c.satisfied_by({"y": 4}) for c in out)
        assert not all(c.satisfied_by({"y": 5}) for c in out)

    def test_equality_with_non_unit_coefficient(self):
        # 2x == y and 0 <= x <= 3  ->  0 <= y <= 6 (rationally)
        cons = [eq(V("x") * 2 - V("y")), ge(V("x")), le(V("x"), 3)]
        out = eliminate_symbol(cons, "x")
        assert all(c.coeff("x") == 0 for c in out)
        assert all(c.satisfied_by({"y": 6}) for c in out)
        assert not all(c.satisfied_by({"y": 7}) for c in out)

    def test_unconstrained_symbol_passthrough(self):
        cons = [ge(V("y"), 3)]
        assert eliminate_symbol(cons, "x") == cons

    def test_equality_with_non_unit_gcd_multiplier(self):
        # Eliminating x via 2x + 3y == 0 from 4x - z <= 20 shares the
        # factor gcd(2, 4) = 2, so the GCD-reduced combination is
        # 1*(20 + z - 4x) + 2*(2x + 3y) = 6y + z + 20 directly — without
        # the reduction the intermediate would be twice that and only
        # re-normalisation would recover it.
        cons = [eq(V("x") * 2 + V("y") * 3), ge(V("z") - V("x") * 4 + 20)]
        out = eliminate_symbol(cons, "x")
        assert all(c.coeff("x") == 0 for c in out)
        [c] = out
        assert c.coeff("y") == 6 and c.coeff("z") == 1 and c.expr.const == 20

    def test_equality_gcd_reduction_matches_rational_semantics(self):
        # 6x == 2y (i.e. 3x == y) with 4x >= y - 8 and 4x <= y + 8.
        cons = [
            eq(V("x") * 6 - V("y") * 2),
            ge(V("x") * 4 - V("y") + 8),
            le(V("x") * 4, V("y") + 8),
        ]
        out = eliminate_symbol(cons, "x")
        assert all(c.coeff("x") == 0 for c in out)
        # Substituting x = y/3 rationally: 4y/3 >= y - 8 -> y >= -24 and
        # 4y/3 <= y + 8 -> y <= 24.
        for y, inside in ((-24, True), (0, True), (24, True), (-25, False), (25, False)):
            assert all(c.satisfied_by({"y": y}) for c in out) == inside

    def test_box_fast_path_matches_pairwise(self):
        # All bounds on x are single-symbol and the box is feasible: the
        # pairwise combinations are trivially true and the survivors are
        # exactly the constraints not involving x, in order.
        rest = [ge(V("y"), 1), le(V("y") + V("z"), 9)]
        cons = [ge(V("x")), rest[0], le(V("x"), 5), rest[1], le(V("x"), 7)]
        assert eliminate_symbol(cons, "x") == rest

    def test_box_fast_path_infeasible_emits_falsum(self):
        # lo > hi: the fast path must not fire, so the pairwise falsum
        # (here 1 - 3 = -2 >= 0) is emitted like always.
        cons = [ge(V("x"), 3), le(V("x"), 1), ge(V("y"))]
        out = eliminate_symbol(cons, "x")
        assert any(c.is_trivially_false() for c in out)

    def test_multi_symbol_elimination_order_independent(self):
        cons = [
            ge(V("x")), le(V("x"), 4),
            ge(V("y") - V("x")), le(V("y"), 6),
            ge(V("z") - V("y")), le(V("z"), 8),
        ]
        a = eliminate_symbols(cons, ["x", "y"])
        b = eliminate_symbols(cons, ["y", "x"])
        for probe in ({"z": 0}, {"z": 8}, {"z": -1}, {"z": 9}):
            assert all(c.satisfied_by(probe) for c in a) == all(
                c.satisfied_by(probe) for c in b
            )


class TestRationalFeasible:
    def test_feasible(self):
        assert rational_feasible([ge(V("x")), le(V("x"), 3)])

    def test_infeasible(self):
        assert not rational_feasible([ge(V("x"), 5), le(V("x"), 3)])

    def test_infeasible_via_combination(self):
        # x <= y, y <= z, z <= x - 1
        cons = [
            ge(V("y") - V("x")),
            ge(V("z") - V("y")),
            ge(V("x") - 1 - V("z")),
        ]
        assert not rational_feasible(cons)


class TestFindIntegerPoint:
    def test_simple_box(self):
        pt = find_integer_point([ge(V("x"), 2), le(V("x"), 2)])
        assert pt == {"x": 2}

    def test_respects_all_constraints(self):
        cons = [ge(V("x")), le(V("x"), 10), ge(V("y") - V("x"), 3), le(V("y"), 5)]
        pt = find_integer_point(cons)
        assert pt is not None
        assert all(c.satisfied_by(pt) for c in cons)

    def test_rational_but_not_integer(self):
        # 2x == 5: rationally feasible, integrally not (caught at
        # normalisation time by the gcd test)
        pt = find_integer_point([eq(V("x") * 2 - 5)])
        assert pt is None

    def test_integer_gap(self):
        # 1 <= 3x <= 2 has rational solutions only
        pt = find_integer_point([ge(V("x") * 3, 1), le(V("x") * 3, 2)])
        assert pt is None

    def test_negative_ranges(self):
        pt = find_integer_point([ge(V("x"), -7), le(V("x"), -5)])
        assert pt is not None and -7 <= pt["x"] <= -5


class TestASearchThatClippedIsUndecided:
    """A search that tried part of a level and found nothing proves nothing:
    both sets hold a point the clipped search never reaches."""

    UNBOUNDED = "{ S[a, b] : 2*b = a + 1 }"  # holds (1, 1); a is tried at 0
    WIDE = (  # holds (9999, 0, 1); i is cut to 0..4096
        "{ S[i, k, j] : 0 <= i <= 20000 and 0 <= k <= 1 and 9999*j - k >= 1"
        " and i - 9999*j >= 0 and j <= 2 }"
    )

    @pytest.mark.parametrize("text", [UNBOUNDED, WIDE], ids=["unbounded", "wide"])
    def test_is_not_reported_empty(self, text):
        s = parse_set(text)
        with obs.collect() as report:
            with pytest.raises(FeasibilityUndecided):
                find_integer_point(list(s.pieces[0].constraints))
        assert report.counters["presburger.integer_sample.undecided"] == 1
        assert not parse_set(text).is_empty()

    def test_the_points_are_there(self):
        assert parse_set(self.UNBOUNDED).contains({"a": 1, "b": 1})
        assert parse_set(self.WIDE).contains({"i": 9999, "k": 0, "j": 1})

    def test_a_search_that_tried_every_value_still_proves_emptiness(self):
        with obs.collect() as report:
            assert find_integer_point([ge(V("x") * 3, 1), le(V("x") * 3, 2)]) is None
        assert "presburger.integer_sample.undecided" not in report.counters


class TestLexScan:
    def test_points_in_lex_order_checked_against_the_system(self):
        # 2y == x: the tower ranges y over [0, 2] for each x, the check
        # keeps the whole ones.
        cons = [ge(V("x")), le(V("x"), 4), eq(V("x") - V("y") * 2)]
        pts = [(p["x"], p["y"]) for p in lex_points(cons, ["x", "y"])]
        assert pts == [(0, 0), (2, 1), (4, 2)]

    def test_a_step_aligns_the_origin_to_its_grid(self):
        # Tile origin t of 5 <= x <= 12 with t <= x < t + 4: the tower
        # ranges t over [2, 12], stepping by 4 from 0, and the origins
        # that hold an x are those of the grid.
        cons = [ge(V("x"), 5), le(V("x"), 12), ge(V("x") - V("t")), ge(V("t") + 3 - V("x"))]
        pts = list(lex_points(cons, ["t", "x"], {"t": 4}))
        assert [(p["t"], p["x"]) for p in pts][:4] == [(4, 5), (4, 6), (4, 7), (8, 8)]
        assert sorted({p["t"] for p in pts}) == [4, 8, 12] and len(pts) == 8

    def test_a_false_projection_ends_the_tower(self):
        cons = [ge(V("x") - V("y"), 1), ge(V("y") - V("x"))]
        assert lex_tower(cons, ["x", "y"]) is None
        assert list(lex_points(cons, ["x", "y"])) == []

    def test_an_open_level_is_named(self):
        with pytest.raises(Unbounded) as info:
            list(lex_points([ge(V("x")), le(V("x"), 2), ge(V("y") - V("x"))], ["x", "y"]))
        assert info.value.args == ("y",)


class TestBoundsForSymbol:
    def test_two_sided(self):
        cons = [ge(V("x"), 1), le(V("x"), 9)]
        assert bounds_for_symbol(cons, "x", {}) == (1, 9)

    def test_with_binding(self):
        cons = [ge(V("x") - V("y")), le(V("x"), 9)]
        lo, hi = bounds_for_symbol(cons, "x", {"y": 4})
        assert (lo, hi) == (4, 9)

    def test_ceil_floor_rounding(self):
        # 3x >= 4  ->  x >= 2 (ceil)   ;   3x <= 8  ->  x <= 2 (floor)
        cons = [ge(V("x") * 3, 4), le(V("x") * 3, 8)]
        lo, hi = bounds_for_symbol(cons, "x", {})
        assert (lo, hi) == (2, 2)

    def test_equality_pins(self):
        cons = [eq(V("x") - 7)]
        lo, hi = bounds_for_symbol(cons, "x", {})
        assert (lo, hi) == (7, 7)

    def test_unbounded_sides(self):
        lo, hi = bounds_for_symbol([ge(V("x"), 3)], "x", {})
        assert lo == 3 and hi is None


class TestIntervalPruning:
    def test_interval_bounds_from_single_symbol_constraints(self):
        cons = [ge(V("x"), 2), le(V("x"), 9), le(V("y"), 4)]
        b = interval_bounds(cons)
        assert b["x"] == (2, 9)
        assert b["y"] == (None, 4)

    def test_equality_pins_interval(self):
        b = interval_bounds([eq(V("x") - 3)])
        assert b["x"] == (3, 3)

    def test_implied_by_intervals_positive(self):
        # On the box 0 <= x <= 5, 0 <= y <= 5: x + y + 1 >= 0 holds.
        cons = [ge(V("x")), le(V("x"), 5), ge(V("y")), le(V("y"), 5)]
        assert implied_by_intervals(ge(V("x") + V("y") + 1), interval_bounds(cons))
        assert not implied_by_intervals(
            ge(V("x") + V("y") - 1), interval_bounds(cons)
        )

    def test_implied_requires_needed_bounds(self):
        # y is unbounded above, so x - y >= 0 cannot be interval-implied.
        cons = [ge(V("x")), le(V("x"), 5), ge(V("y"))]
        assert not implied_by_intervals(ge(V("x") - V("y")), interval_bounds(cons))

    def test_prune_keeps_solution_set(self):
        cons = [
            ge(V("x")),
            le(V("x"), 5),
            le(V("x"), 9),  # looser duplicate pattern
            ge(V("y")),
            le(V("y"), 3),
            ge(V("x") + V("y") + 2),  # implied by the box
        ]
        out = prune_implied_by_intervals(cons)
        assert len(out) < len(cons)
        for x in range(-1, 7):
            for y in range(-1, 5):
                pt = {"x": x, "y": y}
                assert all(c.satisfied_by(pt) for c in cons) == all(
                    c.satisfied_by(pt) for c in out
                )


class TestPruneRedundant:
    def test_drops_implied(self):
        cons = [ge(V("x")), le(V("x"), 5), le(V("x"), 50)]
        out = prune_redundant(cons)
        assert len(out) == 2
        assert all(c.satisfied_by({"x": 5}) for c in out)
        assert not all(c.satisfied_by({"x": 6}) for c in out)

    def test_keeps_equalities(self):
        cons = [eq(V("x") - 3), ge(V("x"))]
        out = prune_redundant(cons)
        assert any(c.kind == "==" for c in out)

    def test_symbols_helper(self):
        cons = [ge(V("a") + V("b")), le(V("c"), 3)]
        assert set(constraint_symbols(cons)) == {"a", "b", "c"}
