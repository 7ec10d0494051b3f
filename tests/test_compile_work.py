"""A cold compile does no work twice: counts, not clocks.

Every bound here is a count the compiler makes of its own work, so the
test gives the same verdict on any host.  The parent of the change that
added it read 111,099 ``read_loads`` calls for local_laplacian, 18,911
``presburger.fm_eliminate`` and 857 distance evaluations for 239 distinct
inputs; a bound that trips means repeated (quadratic) work came back.
"""

from repro import obs
from repro.api import CompileOptions, default_tile_sizes, get_workload, optimize
from repro.codegen.printer import print_tree
from repro.ir import Statement
from repro.presburger import memo
from repro.scheduler import parallelism, schedule_program

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
