"""Tests of the presburger fast-path engine: LinExpr interning, the
operation memo tables, and their instrumentation wiring."""

import pickle

from repro import CompileOptions, obs
from repro.core import optimize
from repro.pipelines import conv2d
from repro.presburger import (
    BasicSet,
    Constraint,
    SetSpace,
    V,
    memo,
    parse_map,
    parse_set,
)
from repro.presburger import linexpr


def build_conv(h=16, w=16):
    return conv2d.build({"H": h, "W": w, "KH": 3, "KW": 3})


# -- interning -------------------------------------------------------------


class TestInterning:
    def test_structurally_equal_exprs_are_one_object(self):
        a = V("x") * 2 + V("y") - 3
        b = V("y") + V("x") * 2 - 3
        assert a == b
        assert a is b

    def test_arithmetic_identities_return_self(self):
        e = V("x") + 5
        assert e + 0 is e
        assert e * 1 is e
        assert e.substitute({"unrelated": 7}) is e
        assert e.rename({"unrelated": "zz"}) is e

    def test_intern_table_is_bounded_and_clearable(self):
        e = V("intern_probe") + 12345
        assert linexpr._INTERN
        linexpr.clear_intern_table()
        # Equality survives clearing (falls back to structural comparison).
        f = V("intern_probe") + 12345
        assert e == f and hash(e) == hash(f)

    def test_coeffs_view_matches_terms(self):
        e = V("b") * 4 - V("a") + 7
        assert e.coeffs == {"b": 4, "a": -1}
        assert e.const == 7
        assert e.coeff("b") == 4 and e.coeff("missing") == 0

    def test_pickle_round_trip_is_portable(self):
        # LinExpr pickles by *name*, not by process-local symbol id.
        e = V("h") * 3 - V("w") + 2
        c = Constraint.ge(e)
        s = parse_set("[N] -> { S[i, j] : 0 <= i < N and 0 <= j < 10 }")
        for obj in (e, c, s):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj
        assert pickle.loads(pickle.dumps(e)).coeffs == e.coeffs


# -- memo tables -----------------------------------------------------------


class TestMemoTables:
    def test_hit_returns_identical_object(self):
        memo.clear_all()
        a = parse_map("{ S[i] -> A[i + 1] : 0 <= i < 10 }").pieces[0]
        b = parse_map("{ A[a] -> B[a - 1] : 1 <= a < 11 }").pieces[0]
        first = a.apply_range(b)
        again = a.apply_range(b)
        assert again is first

    def test_structural_twins_share_results(self):
        memo.clear_all()
        a1 = parse_map("{ S[i] -> A[i] : 0 <= i < 8 }").pieces[0]
        a2 = parse_map("{ S[i] -> A[i] : 0 <= i < 8 }").pieces[0]
        assert a1 is not a2
        assert a1.reverse() is a2.reverse()

    def test_miss_then_hit_counting(self):
        memo.clear_all()
        t = memo.table("project_out")
        space = SetSpace("S", ("i", "j"))
        s = BasicSet(
            space,
            [
                Constraint.ge(V("i")),
                Constraint.le(V("i"), 5),
                Constraint.ge(V("j")),
                Constraint.le(V("j"), 5),
            ],
        )
        h0, m0 = t.hits, t.misses
        s.project_out(["j"])
        assert (t.hits, t.misses) == (h0, m0 + 1)
        s.project_out(["j"])
        assert (t.hits, t.misses) == (h0 + 1, m0 + 1)

    def test_clear_all_empties_every_table(self):
        s = parse_set("{ P[x] : 0 <= x < 4 }").pieces[0]
        s.project_out(["x"])
        assert any(len(t) > 0 for t in (memo.table("project_out"),))
        memo.clear_all()
        assert len(memo.table("project_out")) == 0
        # stats() survives clearing (counters are cumulative).
        assert "project_out" in memo.stats()

    def test_cached_none_is_distinguished_from_miss(self):
        t = memo.table("_test_none")
        t.put(("k",), None)
        assert t.get(("k",)) is None
        assert t.get(("absent",)) is memo.MISS

    def test_read_relations_repeats_return_same_object(self):
        prog = build_conv()
        stmt = prog.statement(prog.statement_names[0])
        assert stmt.read_relations() is stmt.read_relations()

    def test_basic_map_semantics_survive_memoization(self):
        memo.clear_all()
        m = parse_map("{ S[i] -> A[i + 2] : 0 <= i < 6 }").pieces[0]
        r = m.reverse()
        assert r.space == m.space.reversed()
        assert r.reverse().constraints == m.constraints
        i = m.intersect(m.add_constraints([Constraint.ge(V("i"), 1)]))
        assert i.domain().contains({"i": 1})
        assert not i.domain().contains({"i": 0})


# -- instrumentation wiring ------------------------------------------------


class TestStatsWiring:
    def test_optimize_reports_memo_counters(self):
        prog = build_conv()
        with obs.collect() as report:
            optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        hits = [k for k in report.counters if k.startswith("presburger.memo.")]
        assert hits, "no presburger.memo.* counters reached the collector"

    def test_memo_stats_shape(self):
        st = memo.stats()
        for entry in st.values():
            assert set(entry) >= {"hits", "misses", "size", "evictions"}
