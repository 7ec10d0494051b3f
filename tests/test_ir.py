"""Unit tests for the IR layer: expressions, tensors, statements, programs."""

import numpy as np
import pytest

from repro.ir import Const, ProgramBuilder, Tensor, TensorStore, as_expr, relu, vmax
from repro.pipelines import conv2d
from repro.presburger import LinExpr, parse_set


class TestExpr:
    def test_operator_sugar_builds_tree(self):
        A = Tensor("A", (8,))
        i = LinExpr.var("i")
        e = A[i] * 2 + 1
        loads = list(e.loads())
        assert len(loads) == 1
        assert loads[0].tensor == "A"

    def test_op_count(self):
        A = Tensor("A", (8,))
        i = LinExpr.var("i")
        assert (A[i] * 2 + 1).op_count() == 2
        assert Const(3).op_count() == 0
        assert relu(A[i]).op_count() >= 1

    def test_evaluate_with_store(self):
        A = Tensor("A", (8,))
        store = TensorStore({"A": A}, {})
        store.write("A", (3,), 5.0)
        i = LinExpr.var("i")
        e = A[i] * 2 + 1
        assert e.evaluate({"i": 3}, store) == 11.0

    def test_relu_semantics(self):
        A = Tensor("A", (4,))
        store = TensorStore({"A": A}, {})
        store.write("A", (0,), -2.0)
        store.write("A", (1,), 2.0)
        i = LinExpr.var("i")
        e = relu(A[i])
        assert e.evaluate({"i": 0}, store) == 0.0
        assert e.evaluate({"i": 1}, store) == 2.0

    def test_min_max(self):
        e = vmax(as_expr(3), as_expr(7))
        assert e.evaluate({}, None) == 7

    def test_affine_value(self):
        e = as_expr(LinExpr.var("i") + 2)
        assert e.evaluate({"i": 5}, None) == 7


class TestTensor:
    def test_symbolic_shape(self):
        t = Tensor("A", ("H", "W"))
        assert t.concrete_shape({"H": 3, "W": 4}) == (3, 4)
        assert t.size_elems({"H": 3, "W": 4}) == 12

    def test_affine_shape_entries(self):
        t = Tensor("C", (LinExpr.var("H") - 2, LinExpr.var("W") - 2))
        assert t.concrete_shape({"H": 10, "W": 8}) == (8, 6)

    def test_bad_arity_indexing(self):
        t = Tensor("A", ("H", "W"))
        with pytest.raises(IndexError):
            t[LinExpr.var("i")]

    def test_store_set_input_validates_shape(self):
        t = Tensor("A", (4,))
        store = TensorStore({"A": t}, {})
        with pytest.raises(ValueError):
            store.set_input("A", np.zeros(5))

    def test_store_allocates_a_tensor_when_first_used(self):
        store = TensorStore({"A": Tensor("A", (4,)), "B": Tensor("B", ("N", 2))}, {"N": 3})
        assert store.arrays == {}
        assert store["B"].shape == (3, 2) and not store["B"].any()
        store.write("B", (1, 1), 2.0)
        assert store.read("B", (1, 1)) == 2.0 and list(store.arrays) == ["B"]
        with pytest.raises(KeyError):
            store["C"]

    def test_store_refuses_an_empty_tensor_up_front(self):
        with pytest.raises(ValueError):
            TensorStore({"A": Tensor("A", (LinExpr.var("N") - 4,))}, {"N": 4})


class TestStatementAccessRelations:
    def test_conv2d_write_relations(self):
        prog = conv2d.build({"H": 8, "W": 8})
        s2 = prog.statement("S2")
        wr = s2.write_relation()
        assert wr.space.in_name == "S2"
        assert wr.space.out_name == "C"
        assert wr.space.n_in == 4
        assert wr.space.n_out == 2

    def test_conv2d_read_includes_accumulator(self):
        prog = conv2d.build()
        s2 = prog.statement("S2")
        assert set(s2.tensors_read()) == {"A", "B", "C"}

    def test_stencil_read_footprint(self):
        prog = conv2d.build({"H": 8, "W": 8, "KH": 3, "KW": 3})
        s2 = prog.statement("S2")
        reads = s2.read_relations()
        m = reads[("S2", "A")].fix_params({"H": 8, "W": 8, "KH": 3, "KW": 3})
        img = m.image_of_point({"h": 2, "w": 2, "kh": 0, "kw": 0})
        # one instance reads exactly one element of A
        assert img.count_points() == 1
        footprint = m.fix({"h": 2, "w": 2}).range()
        assert footprint.count_points() == 9

    def test_domain_name_must_match(self):
        from repro.ir import Statement

        dom = parse_set("{ T[i] : 0 <= i < 4 }")
        A = Tensor("A", (4,))
        with pytest.raises(ValueError):
            Statement("S", dom, A[LinExpr.var("i")], Const(0))


class TestProgram:
    def test_liveout_and_intermediates(self):
        prog = conv2d.build()
        assert prog.liveout == ("C",)
        assert prog.intermediate_tensors() == ("A",)
        assert prog.input_tensors() == ("B",)

    def test_duplicate_statement_names_rejected(self):
        b = ProgramBuilder("p", params={"N": 4})
        A = b.tensor("A", ("N",))
        (i,) = b.iters("i")
        b.assign("S", (i,), "0 <= i < N", A[i], 0)
        b.assign("S", (i,), "0 <= i < N", A[i], 1)
        with pytest.raises(ValueError):
            b.build()

    def test_domains_union(self):
        prog = conv2d.build({"H": 6, "W": 6, "KH": 3, "KW": 3})
        doms = prog.domains()
        assert set(doms.names()) == {"S0", "S1", "S2", "S3"}
        assert doms["S0"].count_points(prog.params) == 36
        assert doms["S2"].count_points(prog.params) == 16 * 9

    def test_total_instances(self):
        prog = conv2d.build({"H": 6, "W": 6})
        assert prog.total_instances() == 36 + 16 + 144 + 16

    def test_builder_rejects_non_iterator_dims(self):
        b = ProgramBuilder("p", params={"N": 4})
        A = b.tensor("A", ("N",))
        (i,) = b.iters("i")
        with pytest.raises(ValueError):
            b.assign("S", (i + 1,), "0 <= i < N", A[i], 0)

    def test_undeclared_liveout_rejected(self):
        b = ProgramBuilder("p", params={"N": 4})
        A = b.tensor("A", ("N",))
        (i,) = b.iters("i")
        b.assign("S", (i,), "0 <= i < N", A[i], 0)
        b.set_liveout("Z")
        with pytest.raises(ValueError):
            b.build()

    def test_writers_readers(self):
        prog = conv2d.build()
        assert [s.name for s in prog.writers_of("A")] == ["S0"]
        assert [s.name for s in prog.readers_of("A")] == ["S0", "S2"]
