"""A cold compile does no work twice: counts, not clocks.

Every bound here is a count the compiler makes of its own work, so the
test gives the same verdict on any host.  The parent of the change that
added it read 111,099 ``read_loads`` calls for local_laplacian, 18,911
``presburger.fm_eliminate`` and 857 distance evaluations for 239 distinct
inputs; a bound that trips means repeated (quadratic) work came back.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.api import (
    CompileOptions,
    default_tile_sizes,
    get_workload,
    optimize,
    workload_names,
)
from repro.codegen.printer import print_tree
from repro.core import post_fusion
from repro.deps import memory_deps
from repro.ir import Statement
from repro.machine import analyze_optimized, cpu_time
from repro.presburger import (
    BasicMap,
    Constraint,
    LinExpr,
    MapSpace,
    SetSpace,
    UnionMap,
    memo,
)
from repro.scheduler import parallelism, schedule_program
from repro.scheduler.autotune import autotune_tile_sizes
from repro.service.driver import CompileRequest, compile_batch

#: ``bench/workloads/cold_compile.py::PROGRAMS`` (bench/ is not importable
#: from here): every program family the optimizer handles, 1-99 statements.
COLD_COMPILE_PROGRAMS = [
    ("local_laplacian", 512),
    ("multiscale_interp", 512),
    ("camera_pipeline", 512),
    ("harris", 512),
    ("bilateral_grid", 512),
    ("unsharp_mask", 512),
    ("covariance", 256),
    ("3mm", 256),
    ("gemver", 256),
    ("camera_resnet", 512),
    ("equake", 8000),
    ("conv_bn", 32),
]


def cold_compile(name, size):
    """The benchmark's primary operation: memo cleared, optimize, print."""
    memo.clear_all()
    program = get_workload(name, size)
    result = optimize(program, CompileOptions(tile_sizes=default_tile_sizes(name)))
    return program, print_tree(result.tree, program)


def test_expression_trees_are_walked_a_few_times_per_statement(monkeypatch):
    calls = []
    read_loads = Statement.read_loads
    monkeypatch.setattr(
        Statement, "read_loads", lambda self: calls.append(self.name) or read_loads(self)
    )
    program, _ = cold_compile("local_laplacian", 512)
    assert 0 < len(calls) <= 10 * len(program.statements)


def test_one_pass_over_the_cold_compile_set_stays_inside_its_counts():
    before = memo.stats()
    with obs.collect() as report:
        for name, size in COLD_COMPILE_PROGRAMS:
            cold_compile(name, size)
    after = memo.stats()
    misses = sum(
        after[t]["misses"] - before.get(t, {}).get("misses", 0) for t in after
    )
    assert 0 < report.counters["presburger.fm_eliminate"] <= 10_500
    assert 0 < misses <= 13_116


def test_read_relations_build_each_access_piece_once(monkeypatch):
    """A statement's reads of one tensor are one map built from its loads'
    pieces, not a fold of unions that rebuilds every piece so far (one
    bilateral_grid statement loads one tensor 64 times; the fold built
    2,240 ``BasicMap`` objects for bilateral_grid's reads, this bound is
    77)."""
    program = get_workload("bilateral_grid", 512)
    built = []
    init, make = BasicMap.__init__, BasicMap._make

    def counted_init(self, *args, **kwargs):
        built.append(True)
        init(self, *args, **kwargs)

    def counted_make(cls, *args):
        built.append(True)
        return make(*args)

    monkeypatch.setattr(BasicMap, "__init__", counted_init)
    monkeypatch.setattr(BasicMap, "_make", classmethod(counted_make))
    memo.clear_all()
    for stmt in program.statements:
        stmt.read_relations()
    bound = sum(len(s.read_loads()) * len(s.domain.pieces) for s in program.statements)
    assert max(len(s.read_loads()) for s in program.statements) >= 64
    assert 0 < len(built) <= bound


def test_dependences_are_written_down_not_composed():
    """``memory_deps`` substitutes index expressions into each other: no
    Fourier-Motzkin elimination and no composition of access maps (the
    parent ran 34 eliminations and 19 ``apply_range`` misses on
    bilateral_grid)."""
    for name in workload_names():
        program = get_workload(name)
        memo.clear_all()
        with obs.collect() as report:
            deps = memory_deps(program)
        assert deps, name
        counters = report.counters
        assert counters.get("presburger.fm_eliminate", 0) == 0, name
        assert counters.get("presburger.memo.apply_range.miss", 0) == 0, name
        assert counters.get("presburger.memo.apply_range.hit", 0) == 0, name


def test_each_dependence_distance_is_computed_once(monkeypatch):
    seen = []
    row_distance = parallelism.row_distance

    def counting(dep, pieces, s_row, d_row):
        seen.append((id(dep), s_row, d_row))
        return row_distance(dep, pieces, s_row, d_row)

    monkeypatch.setattr(parallelism, "row_distance", counting)
    memo.clear_all()
    scheduled = schedule_program(get_workload("local_laplacian", 512))
    assert len(scheduled.deps) > 100
    assert len(seen) == len(set(seen)) > 0


def test_splicing_an_extension_projects_nothing(monkeypatch):
    """The statements an extension adds are the out tuples of its map
    keys: ``apply_mixed_schedules`` runs no ``UnionMap.range`` and no FM
    elimination inside ``insert_extension_below``."""
    inserts, ranges, eliminations = [], [], []
    insert, range_ = post_fusion.insert_extension_below, UnionMap.range

    def counted_insert(*args):
        inserts.append(True)
        try:
            with obs.collect() as report:
                return insert(*args)
        finally:
            inserts[-1] = False
            eliminations.append(report.counters.get("presburger.fm_eliminate", 0))

    def counted_range(self):
        ranges.append(any(inserts))
        return range_(self)

    monkeypatch.setattr(post_fusion, "insert_extension_below", counted_insert)
    monkeypatch.setattr(UnionMap, "range", counted_range)
    cold_compile("harris", 512)
    assert len(inserts) > 0
    assert not any(ranges)
    assert eliminations == [0] * len(inserts)


def _memo_counts(run):
    """Per memo table, the ``(hits, misses)`` that ``run()`` adds."""
    before = memo.stats()
    run()
    after = memo.stats()
    zero = {"hits": 0, "misses": 0}
    return {
        t: (
            after[t]["hits"] - before.get(t, zero)["hits"],
            after[t]["misses"] - before.get(t, zero)["misses"],
        )
        for t in after
    }


def test_after_clearing_the_memo_tables_a_compile_reuses_nothing():
    """The benchmark builds each ``Program`` once and clears the memo
    tables before every cold operation, so a cold compile of the same
    program object must repeat every hit and every miss of the last one:
    nothing Algorithm 1 derives may outlive the tables, on an object the
    program owns or anywhere else."""
    runs = [_memo_counts(lambda: cold_compile("harris", 512)) for _ in range(3)]
    assert runs[1] == runs[2]
    assert runs[2]["tile_shapes_chain"] == (0, 1)


#: Leaf types a structural memo key is built from.  An identity key (an
#: ``id()``, or an object hashed by identity) is none of these, or an int
#: far beyond any coefficient, size or count.
STRUCTURAL = (str, int, bool, type(None), LinExpr, Constraint, SetSpace, MapSpace)


def _leaves(key):
    if isinstance(key, (tuple, list, frozenset)):
        for part in key:
            yield from _leaves(part)
    else:
        yield key


def test_the_memo_snapshot_carries_no_identity_keyed_entry():
    memo.clear_all()
    program = get_workload("harris", 512)
    autotune_tile_sizes(program, CompileOptions(mode="serial"), candidates=(8, 32, 128))
    snapshot = memo.snapshot()
    assert snapshot and "tile_shapes_chain" not in snapshot
    every_table = memo.snapshot(names=memo.stats())
    assert "tile_shapes_chain" in every_table
    for table, entries in every_table.items():
        for key, _ in entries:
            for leaf in _leaves(key):
                assert isinstance(leaf, STRUCTURAL), (table, type(leaf))
                assert not isinstance(leaf, int) or abs(leaf) < 1 << 32, (table, leaf)


def test_a_sweep_derives_its_relations_once():
    """Algorithm 1's symbolic chain is derived by the first of harris's 25
    candidates and read by the other 24, and every box the sweep reads
    (Algorithm 1's budgets, the promoted buffers, the streamed reads) is
    one projection of a relation in symbolic tile sizes, not one per
    candidate."""
    memo.clear_all()
    program = get_workload("harris", 512)
    with obs.collect() as report:
        tuned = autotune_tile_sizes(
            program, CompileOptions(mode="serial"), candidates=(8, 16, 32, 64, 128)
        )
    assert len(tuned.evaluations) == 25
    counters = report.counters
    assert counters["presburger.memo.tile_shapes_chain.miss"] == 1
    assert counters["presburger.memo.tile_shapes_chain.hit"] == 24
    assert counters["presburger.memo.umap_box_projection.miss"] == 16


def test_candidates_compiled_on_threads_share_the_derivations_safely():
    """Candidates compiled on eight threads at once, as the daemon's worker
    pool compiles them, derive the shared chain concurrently; with a short
    switch interval any lost or reordered step would change a cost."""
    program = get_workload("harris", 512)
    grid = (8, 16, 32, 64, 128)
    memo.clear_all()
    serial = autotune_tile_sizes(program, CompileOptions(mode="serial"), candidates=grid)

    def cost(sizes):
        request = CompileRequest(program, tile_sizes=sizes, tag="autotune")
        (outcome,) = compile_batch([request], CompileOptions(mode="serial"))
        if not outcome.ok:
            return sizes, outcome.error
        return sizes, cpu_time(analyze_optimized(outcome.result), 32)

    memo.clear_all()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = dict(pool.map(cost, [(a, b) for a in grid for b in grid]))
    finally:
        sys.setswitchinterval(interval)
    assert {k: v for k, v in threaded.items() if isinstance(v, float)} == serial.evaluations
    assert {k: v for k, v in threaded.items() if isinstance(v, str)} == serial.failures
