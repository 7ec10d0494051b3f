"""A candidate is costed once: the machine-model summary travels with its
cache entry, so a warm sweep does no analysis.

Counts, not clocks: ``machine.analyze.computed`` / ``.reused`` over cold and
warm sweeps, equal tuner results however the summary got there (or did not),
and the calls that must neither read nor write it.
"""

import pickle

import pytest

from repro import CompileOptions, obs
from repro.core import optimize
from repro.data import Dataset
from repro.machine import analyze_optimized, cost, work_features
from repro.scheduler.autotune import autotune_tile_sizes
from repro.service.cache import BLOB_GLOBALS, CompileCache
from repro.service.driver import CompileRequest, compile_batch
from repro.workloads import get_workload

GRID = (8, 16, 32, 64, 128)   # the benchmark's 25 points
SMALL = (8, 16, 32)


def _sweep(program, cache, candidates=GRID, mode="serial", **kw):
    """One sweep and the counters it moved."""
    opts = CompileOptions(mode=mode, jobs=2 if mode != "serial" else None, cache=cache)
    with obs.collect() as report:
        tuned = autotune_tile_sizes(program, opts, candidates=candidates, **kw)
    return tuned, report.counters


def _answers(tuned):
    return tuned.evaluations, tuned.best_sizes, tuned.best_time, tuned.failures


def test_cold_sweep_costs_each_candidate_once_and_a_warm_one_none(tmp_path):
    program = get_workload("conv2d", 256)
    cold_cache = CompileCache(cache_dir=str(tmp_path / "cache"))
    cold, counted = _sweep(program, cold_cache, collect=str(tmp_path / "cold.jsonl"))
    assert len(cold.evaluations) == 25 and cold_cache.stats.stores == 25
    # computed before the put, by the driver; each read once, by the tuner
    assert counted["machine.analyze.computed"] == 25
    assert counted["machine.analyze.reused"] == 25

    warm_cache = CompileCache(cache_dir=str(tmp_path / "cache"))
    warm, counted = _sweep(program, warm_cache, collect=str(tmp_path / "warm.jsonl"))
    assert "machine.analyze.computed" not in counted
    assert counted["machine.analyze.reused"] == 25
    assert warm_cache.stats.disk_hits == 25 and warm_cache.stats.stores == 0
    assert warm_cache.stats.errors == 0 and warm_cache.stats.misses == 0
    assert _answers(warm) == _answers(cold)

    def work_rows(name):
        return {
            tuple(r["tile_sizes"]): (r["cost"], r["work"])
            for r in Dataset(str(tmp_path / name)).records()
        }

    assert len(work_rows("cold.jsonl")) == 25
    assert work_rows("warm.jsonl") == work_rows("cold.jsonl")


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
def test_every_dispatch_mode_stores_entries_that_carry_the_summary(tmp_path, mode):
    program = get_workload("harris", 64)
    reference = _sweep(program, None, SMALL)[0]
    cache = CompileCache(cache_dir=str(tmp_path))
    cold, counted = _sweep(program, cache, SMALL, mode)
    assert counted["machine.analyze.computed"] == 9  # in the workers, merged back
    warm, counted = _sweep(program, CompileCache(cache_dir=str(tmp_path)), SMALL, mode)
    assert "machine.analyze.computed" not in counted
    assert _answers(cold) == _answers(warm) == _answers(reference)


def test_entries_without_a_summary_are_hits_analysed_on_demand(tmp_path, monkeypatch):
    program = get_workload("conv2d", 64)
    expected = _sweep(program, None, SMALL)[0]

    # what cached_optimize, the daemon's compile verb or the parent commit wrote
    monkeypatch.setattr(CompileRequest, "is_candidate", False)
    filled = CompileCache(cache_dir=str(tmp_path))
    stripped, counted = _sweep(program, filled, SMALL)
    monkeypatch.undo()
    assert filled.stats.stores == 9 and _answers(stripped) == _answers(expected)

    reader = CompileCache(cache_dir=str(tmp_path))
    warm, counted = _sweep(program, reader, SMALL)
    assert reader.stats.disk_hits == 9 and reader.stats.errors == 0
    assert counted["machine.analyze.computed"] == 9
    assert "machine.analyze.reused" not in counted
    assert _answers(warm) == _answers(expected)


def test_an_uncosted_entry_is_costed_by_its_first_hit_and_by_no_later_one(tmp_path):
    """What mixed ``compile`` and ``tune`` traffic does to a daemon: the hit is
    a ``fresh()`` copy, and what it computes must reach the tier's instance."""
    program = get_workload("conv2d", 64)
    cache = CompileCache(cache_dir=str(tmp_path))
    compile_batch(
        [CompileRequest(program, tile_sizes=(32, 32))], CompileOptions(mode="serial", cache=cache)
    )
    assert cache.stats.stores == 1
    first, counted = _sweep(program, cache, SMALL)
    # eight misses costed by the driver, the hit on the untagged entry by the tuner
    assert cache.stats.memory_hits == 1 and counted["machine.analyze.computed"] == 9
    for _ in range(2):
        again, counted = _sweep(program, cache, SMALL)
        assert "machine.analyze.computed" not in counted
        assert counted["machine.analyze.reused"] == 9
        assert _answers(again) == _answers(first) == _answers(_sweep(program, None, SMALL)[0])
    assert cache.stats.stores == 9 and cache.stats.errors == 0


def test_a_blob_pickled_before_the_field_existed_loads_and_is_analysed(tmp_path):
    program = get_workload("conv2d", 64)
    result = optimize(program, CompileOptions(tile_sizes=(8, 8)))
    expected = analyze_optimized(result)
    del result.__dict__["work_summary"]
    assert b"work_summary" not in pickle.dumps(result)
    CompileCache(cache_dir=str(tmp_path)).put("ab" * 32, result)

    reader = CompileCache(cache_dir=str(tmp_path))
    hit = reader.get("ab" * 32)
    assert reader.stats.disk_hits == 1 and reader.stats.errors == 0
    assert hit.work_summary == []
    assert analyze_optimized(hit) == expected
    assert hit.work_summary == expected.as_builtins()
    assert hit.fresh().work_summary is hit.work_summary


def test_summary_is_plain_builtins_and_round_trips_to_the_digit(tmp_path):
    program = get_workload("harris", 64)
    result = optimize(program, CompileOptions(tile_sizes=(8, 8)))
    computed = analyze_optimized(result)
    for cluster in result.work_summary:
        assert type(cluster) is dict
        for value in cluster.values():
            assert type(value) in (str, int, float, bool, list)
    # no class of repro.machine in the blob: the allowlist did not grow
    assert not any("machine" in prefix for prefix in BLOB_GLOBALS)
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put("cd" * 32, result)
    reused = analyze_optimized(CompileCache(cache_dir=str(tmp_path)).get("cd" * 32))
    assert reused == computed and work_features(reused) == work_features(computed)
    # a consumer that edits what it was handed does not reach the summary
    reused.clusters[0].statements.append("S_edit")
    assert analyze_optimized(result) == computed


def test_other_params_and_overlap_neither_read_nor_write_the_summary():
    program = get_workload("conv2d", 64)
    other = {"H": 2 * program.params["H"], "W": 2 * program.params["W"]}
    result = optimize(program, CompileOptions(tile_sizes=(8, 8)))
    with obs.collect() as report:
        doubled = analyze_optimized(result, params=other)
        boxed = analyze_optimized(result, overlap="box_total")
    assert result.work_summary == []
    assert report.counters["machine.analyze.computed"] == 2

    own = analyze_optimized(result, params=dict(program.params))  # own values, spelled out
    assert result.work_summary == own.as_builtins()
    assert own != doubled

    marker = [dict(own.as_builtins()[0], name="noticed if it were read")]
    result.work_summary[:] = marker
    assert analyze_optimized(result).clusters[0].name == "noticed if it were read"
    assert analyze_optimized(result, params=other) == doubled
    assert analyze_optimized(result, overlap="box_total") == boxed
    assert result.work_summary == marker


def test_an_analysis_that_raises_fails_the_candidate_not_the_compile(tmp_path, monkeypatch):
    program = get_workload("conv2d", 64)
    real = cost.promoted_buffers

    def refuses_16(result, params):
        if result.tile_sizes == (16, 16):
            raise ValueError("tensor A has extent -1")
        return real(result, params)

    monkeypatch.setattr(cost, "promoted_buffers", refuses_16)
    for cache in (CompileCache(cache_dir=str(tmp_path)), CompileCache(cache_dir=str(tmp_path))):
        tuned, _ = _sweep(program, cache, SMALL)
        assert tuned.failures[(16, 16)] == "ValueError: tensor A has extent -1"
        assert len(tuned.evaluations) == 8 and (16, 16) not in tuned.evaluations
    assert cache.stats.disk_hits == 9  # the compile was stored all the same


def test_batch_requests_that_are_not_candidates_are_not_analysed(tmp_path):
    program = get_workload("conv2d", 64)
    cache = CompileCache(cache_dir=str(tmp_path))
    with obs.collect() as report:
        (plain,) = compile_batch(
            [CompileRequest(program, tile_sizes=(8, 8))], CompileOptions(mode="serial", cache=cache)
        )
        (marked,) = compile_batch(
            [CompileRequest(program, tile_sizes=(16, 16), tag="autotune")],
            CompileOptions(mode="serial", cache=cache),
        )
    assert plain.result.work_summary == [] and marked.result.work_summary
    assert report.counters["machine.analyze.computed"] == 1
    # the mark is not part of the key
    assert (
        CompileRequest(program, tile_sizes=(8, 8), tag="autotune").fingerprint
        == CompileRequest(program, tile_sizes=(8, 8)).fingerprint
    )


def test_statement_memos_are_never_pickled():
    program = get_workload("harris", 64)
    before = pickle.dumps(program)
    for stmt in program.statements:
        assert stmt.tensors_read() is stmt.tensors_read()
        assert stmt.ops_per_instance() == stmt.ops_per_instance() >= 1
    assert all({"_ops", "_tensors_read"} <= set(vars(s)) for s in program.statements)
    assert pickle.dumps(program) == before
    clone = pickle.loads(before)
    assert not any({"_ops", "_tensors_read"} & set(vars(s)) for s in clone.statements)
    assert [s.tensors_read() for s in clone.statements] == [
        s.tensors_read() for s in program.statements
    ]
