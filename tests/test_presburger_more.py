"""Additional presburger coverage: parser, unions, hulls, enumeration."""

import pytest

from repro.presburger import (
    EnumerationError,
    Map,
    ParseError,
    enumerate_points,
    enumerate_set_points,
    parse_map,
    parse_set,
    parse_union_map,
    parse_union_set,
)


class TestParser:
    def test_params_prologue(self):
        s = parse_set("[N, M] -> { S[i] : 0 <= i < N + M }")
        assert s.space.params == ("N", "M")

    def test_or_produces_union(self):
        s = parse_set("{ S[i] : 0 <= i < 2 or 5 <= i < 7 }")
        assert len(s.pieces) == 2
        assert s.count_points() == 4

    def test_chained_comparisons(self):
        s = parse_set("{ S[i, j] : 0 <= i <= j < 4 }")
        assert s.count_points() == 10  # triangular

    def test_negative_and_scaled_terms(self):
        s = parse_set("{ S[i] : -2 <= 3*i - 4 <= 2 }")
        assert s.count_points() == 2  # i in {1, 2}

    def test_map_with_expression_range(self):
        m = parse_map("{ S[i, j] -> A[2*i + 1, j - 1] }")
        img = m.image_of_point({"i": 3, "j": 5})
        pt = img.sample()
        vals = sorted(pt.values())
        assert vals == [4, 7]

    def test_union_set_multiple_tuples(self):
        us = parse_union_set("{ S[i] : 0 <= i < 2 ; T[a, b] : a = b and 0 <= a < 3 }")
        assert set(us.names()) == {"S", "T"}
        assert us["T"].count_points() == 3

    def test_union_map(self):
        um = parse_union_map(
            "{ S[i] -> A[i] : 0 <= i < 4 ; S[i] -> B[i + 1] : 0 <= i < 4 }"
        )
        assert set(um.keys()) == {("S", "A"), ("S", "B")}

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_set("{ S[i] : i ** 2 }")
        with pytest.raises(ParseError):
            parse_set("{ S[i] : i * j }")  # non-linear

    def test_same_tuple_merged(self):
        s = parse_set("{ S[i] : 0 <= i < 2 ; S[j] : 4 <= j < 6 }")
        assert s.count_points() == 4


class TestUnionAlgebra:
    def test_apply_to_union_set(self):
        um = parse_union_map("{ S[i] -> A[i + 1] : 0 <= i < 3 }")
        us = parse_union_set("{ S[i] : 0 <= i < 3 }")
        image = um.apply_to_set(us)
        assert image["A"].count_points() == 3

    def test_union_map_compose(self):
        f = parse_union_map("{ S[i] -> T[2*i] : 0 <= i < 4 }")
        g = parse_union_map("{ T[j] -> U[j + 1] }")
        h = f.apply_range(g)
        assert set(h.keys()) == {("S", "U")}
        img = h[("S", "U")].image_of_point({"i": 3})
        (dim,) = img.space.dims
        assert img.sample()[dim] == 7

    def test_composing_an_empty_map_names_its_dims_like_a_nonempty_one(self):
        f = parse_map("{ S[i] -> A[o0] : o0 = i and 0 <= i < 4 }")
        g = parse_map("{ A[o0] -> S[i] : i = o0 and 0 <= o0 < 4 }")
        full = f.apply_range(g)
        assert full.space.out_dims == ("i_1",)
        for left, right in ((Map.empty(f.space), g), (f, Map.empty(g.space))):
            composed = left.apply_range(right)
            assert composed.is_empty() and not composed.pieces
            assert composed.space == full.space

    def test_union_subtract_and_subset(self):
        a = parse_union_set("{ S[i] : 0 <= i < 10 }")
        b = parse_union_set("{ S[i] : 0 <= i < 4 }")
        assert b.is_subset(a)
        assert not a.is_subset(b)
        assert a.subtract(b)["S"].count_points() == 6

    def test_intersect_domain_range(self):
        um = parse_union_map("{ S[i] -> A[i] : 0 <= i < 10 }")
        dom = parse_union_set("{ S[i] : 2 <= i < 5 }")
        clipped = um.intersect_domain(dom)
        assert clipped.range()["A"].count_points() == 3


class TestHulls:
    def test_pattern_hull_merges_shifted_boxes(self):
        s = parse_set(
            "{ S[i] : 0 <= i < 4 or 2 <= i < 6 or 4 <= i < 8 }"
        )
        hull = s.pattern_hull()
        assert len(hull.pieces) == 1
        assert hull.count_points() == 8  # exact here: the union is convex

    def test_pattern_hull_is_superset(self):
        s = parse_set("{ S[i] : 0 <= i < 2 or 6 <= i < 8 }")
        hull = s.pattern_hull()
        assert s.is_subset(hull)
        assert hull.count_points() == 8  # over-approximates the gap

    def test_pattern_hull_keeps_distinct_structures_separate(self):
        # one piece bounds i, the other bounds i via j: different patterns
        s = parse_set("{ S[i, j] : 0 <= i < 4 and 0 <= j < 4 or 0 <= i < 4 and i <= j < 4 }")
        hull = s.pattern_hull()
        for piece in hull.pieces:
            box = piece.bounding_box()
            for lo, hi in box.values():
                assert lo is not None and hi is not None

    def test_dedupe(self):
        s = parse_set("{ S[i] : 0 <= i < 4 or 0 <= i < 4 }")
        assert len(s.dedupe().pieces) == 1


class TestEnumeration:
    def test_lexicographic_order(self):
        s = parse_set("{ S[i, j] : 0 <= i < 2 and 0 <= j < 2 }")
        pts = [(p["i"], p["j"]) for p in enumerate_points(s.pieces[0])]
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_unbounded_raises(self):
        for text, dim in [
            ("{ S[i] : i >= 0 }", "i"),
            ("{ S[i, j] : 0 <= i < 3 and j >= i }", "j"),
        ]:
            s = parse_set(text)
            with pytest.raises(EnumerationError, match=f"dimension {dim} of"):
                list(enumerate_points(s.pieces[0]))

    def test_params_required(self):
        s = parse_set("[N] -> { S[i] : 0 <= i < N }")
        with pytest.raises(EnumerationError):
            list(enumerate_points(s.pieces[0]))
        assert len(list(enumerate_points(s.pieces[0], {"N": 3}))) == 3

    def test_union_enumeration_dedupes(self):
        s = parse_set("{ S[i] : 0 <= i < 4 or 2 <= i < 6 }")
        assert len(list(enumerate_set_points(s))) == 6

    def test_triangular_domain(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and i <= j < 4 }")
        assert s.count_points() == 10

