"""Tests for dependence analysis on the paper's running example."""

import pickle

import pytest

from repro.api import get_workload, workload_names
from repro.deps import (
    ANTI,
    FLOW,
    OUTPUT,
    Dependence,
    dep_distance_bounds,
    flow_deps,
    memory_deps,
    producer_consumer_tensors,
    statement_row_map,
)
from repro.deps.analysis import _join, _lex_lt_pieces
from repro.pipelines import conv2d


def dep_between(deps, src, dst, tensor=None):
    for d in deps:
        if d.source == src and d.target == dst and (tensor is None or d.tensor == tensor):
            return d
    return None


class TestFlowDeps:
    def setup_method(self):
        self.prog = conv2d.build({"H": 8, "W": 8, "KH": 3, "KW": 3})
        self.deps = flow_deps(self.prog)

    def test_quant_to_conv_dep_exists(self):
        d = dep_between(self.deps, "S0", "S2", "A")
        assert d is not None

    def test_init_to_reduce_dep_exists(self):
        assert dep_between(self.deps, "S1", "S2", "C") is not None

    def test_reduce_to_relu_dep_exists(self):
        assert dep_between(self.deps, "S2", "S3", "C") is not None

    def test_no_backwards_dep(self):
        assert dep_between(self.deps, "S3", "S0") is None
        assert dep_between(self.deps, "S2", "S1") is None

    def test_self_dep_of_reduction(self):
        d = dep_between(self.deps, "S2", "S2", "C")
        assert d is not None

    def test_dep_relation_points(self):
        # S0[h', w'] -> S2[h, w, kh, kw] iff h' = h + kh, w' = w + kw
        d = dep_between(self.deps, "S0", "S2", "A")
        rel = d.relation.fix_params(self.prog.params)
        img = rel.image_of_point({"h": 1, "w": 2})
        # A[1,2] is read by S2 instances with h+kh=1, w+kw=2
        # h in {0,1} (h<=5), kh=1-h; w in {0,1,2}
        assert img.count_points() == 2 * 3


class TestDistances:
    def setup_method(self):
        self.prog = conv2d.build({"H": 8, "W": 8, "KH": 3, "KW": 3})
        self.deps = flow_deps(self.prog)

    def test_stencil_distance_bounds(self):
        d = dep_between(self.deps, "S0", "S2", "A")
        src = statement_row_map(self.prog.statement("S0"), 2)
        dst = statement_row_map(self.prog.statement("S2"), 2)
        bounds = dep_distance_bounds(d, src, dst, self.prog.params)
        # h = h' - kh so distance h - h' in [-(KH-1), 0]
        assert bounds[0] == (-2, 0)
        assert bounds[1] == (-2, 0)

    def test_pointwise_distance_is_zero(self):
        d = dep_between(self.deps, "S2", "S3", "C")
        src = statement_row_map(self.prog.statement("S2"), 2)
        dst = statement_row_map(self.prog.statement("S3"), 2)
        bounds = dep_distance_bounds(d, src, dst, self.prog.params)
        assert bounds == [(0, 0), (0, 0)]

    def test_reduction_self_dep_distance(self):
        d = dep_between(self.deps, "S2", "S2", "C")
        s2 = self.prog.statement("S2")
        rows = statement_row_map(s2, 4)
        bounds = dep_distance_bounds(d, rows, rows, self.prog.params)
        # outer h, w distances are zero; kh/kw carry the reduction
        assert bounds[0] == (0, 0)
        assert bounds[1] == (0, 0)
        lo2, hi2 = bounds[2]
        assert (lo2, hi2) != (0, 0)


class TestKindsAndGraph:
    def test_anti_dep_of_inplace_quant(self):
        prog = conv2d.build({"H": 6, "W": 6})
        deps = memory_deps(prog)
        kinds = {(d.source, d.target, d.kind) for d in deps}
        # S1 writes C then S2 reads + writes C: flow and output
        assert ("S1", "S2", "flow") in kinds
        assert ("S1", "S2", "output") in kinds

    def test_producer_consumer_table(self):
        prog = conv2d.build({"H": 6, "W": 6})
        table = producer_consumer_tensors(prog)
        assert table[("S0", "S2")] == ["A"]
        assert "C" in table[("S2", "S3")]


# -- the sharing-pairs walk and the Program index against plain scans --------


def memory_deps_all_pairs(program, kinds=(FLOW, ANTI, OUTPUT)):
    """Reference: every pair ``j >= i``, access relations looked up per pair
    (the loop ``memory_deps`` was before it visited sharing pairs only)."""
    kinds = set(kinds)
    deps = []
    stmts = program.statements
    for i, src in enumerate(stmts):
        src_writes = {src.tensor_written(): src.write_relation()}
        src_reads = {key[1]: m for key, m in src.read_relations().maps.items()}
        for j in range(i, len(stmts)):
            dst = stmts[j]
            dst_write = {dst.tensor_written(): dst.write_relation()}
            dst_reads = {key[1]: m for key, m in dst.read_relations().maps.items()}
            pairs = []
            if FLOW in kinds:
                pairs += [(FLOW, t, src_writes[t], dst_reads[t]) for t in src_writes if t in dst_reads]
            if ANTI in kinds:
                pairs += [(ANTI, t, src_reads[t], dst_write[t]) for t in src_reads if t in dst_write]
            if OUTPUT in kinds:
                pairs += [(OUTPUT, t, src_writes[t], dst_write[t]) for t in src_writes if t in dst_write]
            for kind, tensor, a_map, b_map in pairs:
                rel = _join(a_map, b_map)
                if i == j:
                    if kind == OUTPUT:
                        continue
                    rel = _lex_lt_pieces(rel)
                if not rel.is_empty():
                    deps.append(Dependence(src.name, dst.name, tensor, kind, rel, src.dims, dst.dims))
    return deps


def dep_facts(dep):
    """Everything a dependence says, relation by structure (stricter and
    far cheaper than the semantic ``Map.__eq__``)."""
    rel = dep.relation
    return (
        dep.source, dep.target, dep.tensor, dep.kind, dep.src_dims, dep.dst_dims,
        rel.space, [(bm.space, bm.constraints) for bm in rel.pieces],
    )


@pytest.fixture(scope="module", params=workload_names())
def named_program(request):
    return get_workload(request.param)


class TestSharingPairsAndIndex:
    def test_memory_deps_equals_the_all_pairs_reference(self, named_program):
        got = memory_deps(named_program)
        want = memory_deps_all_pairs(named_program)
        assert [dep_facts(d) for d in got] == [dep_facts(d) for d in want]
        flow = [dep_facts(d) for d in flow_deps(named_program)]
        assert flow == [f for f in map(dep_facts, want) if f[3] == FLOW]

    def test_index_lookups_equal_linear_scans(self, named_program):
        p = named_program
        for i, s in enumerate(p.statements):
            assert p.statement(s.name) is s
            assert p.statement_index(s.name) == i
        for t in list(p.tensors) + ["no_such_tensor"]:
            readers = [s for s in p.statements if t in s.tensors_read()]
            writers = [s for s in p.statements if s.tensor_written() == t]
            assert p.readers_of(t) == readers
            assert p.writers_of(t) == writers
            assert (t in p.written_tensors()) == bool(writers)
        for lookup in (p.statement, p.statement_index):
            with pytest.raises(KeyError) as err:
                lookup("no_such_statement")
            assert err.value.args == ("no_such_statement",)
        # A caller may do what it likes with the list it is handed.
        p.writers_of(p.statements[0].tensor_written()).clear()
        assert p.writers_of(p.statements[0].tensor_written())


def test_index_is_never_pickled():
    program = conv2d.build({"H": 8, "W": 8, "KH": 3, "KW": 3})
    before = pickle.dumps(program)
    program.statement("S2"), program.readers_of("A")
    assert "_lookup" in vars(program)
    assert pickle.dumps(program) == before
    clone = pickle.loads(before)
    assert "_lookup" not in vars(clone)
    assert clone.statement_index("S3") == 3
