"""A candidate is costed once: the machine-model summary travels with its
cache entry, so a warm sweep does no analysis.

Counts, not clocks: ``machine.analyze.computed`` / ``.reused`` over cold and
warm sweeps, equal tuner results however the summary got there (or did not),
and the calls that must neither read nor write it.
"""

import json
import pickle
import struct

import pytest

from repro import CompileOptions, obs
from repro.baselines import polymage_overlap
from repro.core import optimize
from repro.machine import analyze_optimized, cost
from repro.scheduler.autotune import autotune_tile_sizes
from repro.service.cache import BLOB_GLOBALS, CompileCache
from repro.service.driver import MODES, CompileRequest, compile_batch
from repro.service.store import LocalStore
from repro.workloads import get_workload

GRID = (8, 16, 32, 64, 128)   # the benchmark's 25 points
SMALL = (8, 16, 32)


def _sweep(program, cache, candidates=GRID, mode="serial"):
    """One sweep and the counters it moved."""
    opts = CompileOptions(mode=mode, cache=cache)
    with obs.collect() as report:
        tuned = autotune_tile_sizes(program, opts, candidates=candidates)
    return tuned, report.counters


def _answers(tuned):
    return tuned.evaluations, tuned.best_sizes, tuned.best_time, tuned.failures


def test_cold_sweep_costs_each_candidate_once_and_a_warm_one_none(tmp_path):
    program = get_workload("conv2d", 256)
    cold_cache = CompileCache(cache_dir=str(tmp_path / "cache"))
    cold, counted = _sweep(program, cold_cache)
    assert len(cold.evaluations) == 25 and cold_cache.stats.stores == 25
    # computed before the put, by the driver; each read once, by the tuner
    assert counted["machine.analyze.computed"] == 25
    assert counted["machine.analyze.reused"] == 25

    warm_cache = CompileCache(cache_dir=str(tmp_path / "cache"))
    warm, counted = _sweep(program, warm_cache)
    assert "machine.analyze.computed" not in counted
    assert counted["machine.analyze.reused"] == 25
    assert warm_cache.stats.disk_hits == 25 and warm_cache.stats.stores == 0
    assert warm_cache.stats.errors == 0 and warm_cache.stats.misses == 0
    assert _answers(warm) == _answers(cold)

    def summaries(cache):
        """The 25 entries' summaries, read back through ``cache``."""
        return {
            sizes: analyze_optimized(
                cache.get(CompileRequest(program, tile_sizes=sizes).fingerprint)
            ).as_builtins()
            for sizes in cold.evaluations
        }

    # what the warm sweep read is, to the digit, what the cold one stored
    cold_read = summaries(cold_cache)
    assert len(cold_read) == 25
    assert summaries(warm_cache) == cold_read


def test_a_cold_sweep_counts_every_tile_image_in_closed_form():
    """Every exact count harris's 25 cpu candidates charge (instances each
    fused statement runs per tile, elements each promoted buffer holds) is
    the union volume of boxes evaluated at the representative tile; none
    enumerates an image."""
    tuned, counted = _sweep(get_workload("harris", 512), None)
    assert len(tuned.evaluations) == 25
    assert counted["machine.analyze.computed"] == 25
    assert counted["footprint.count.closed_form"] == 400
    assert "footprint.count.enumerated" not in counted


@pytest.mark.parametrize("mode", MODES)
def test_every_dispatch_mode_stores_entries_that_carry_the_summary(tmp_path, mode):
    program = get_workload("harris", 64)
    reference = _sweep(program, None, SMALL)[0]
    cache = CompileCache(cache_dir=str(tmp_path))
    cold, counted = _sweep(program, cache, SMALL, mode)
    assert counted["machine.analyze.computed"] == 9  # by the driver, before the put
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
    # one store read per entry: the summary read tiers it for the compile
    memo_reads = reader.stats.memo_hits + reader.stats.memo_misses
    assert reader.store.stats.get("gets") - memo_reads == 9


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
    del result.__dict__["work_summary"], result.__dict__["cost_policy"]
    assert b"work_summary" not in pickle.dumps(result)
    assert b"cost_policy" not in pickle.dumps(result)
    CompileCache(cache_dir=str(tmp_path)).put("ab" * 32, result)

    reader = CompileCache(cache_dir=str(tmp_path))
    hit = reader.get("ab" * 32)
    assert reader.stats.disk_hits == 1 and reader.stats.errors == 0
    assert hit.work_summary == [] and hit.cost_policy == "exact"
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
    assert reused == computed
    # a consumer that edits what it was handed does not reach the summary
    reused.clusters[0].statements.append("S_edit")
    assert analyze_optimized(result) == computed


def test_other_params_and_overlap_neither_read_nor_write_the_summary():
    program = get_workload("conv2d", 64)
    other = {"H": 2 * program.params["H"], "W": 2 * program.params["W"]}
    result = optimize(program, CompileOptions(tile_sizes=(8, 8)))
    with obs.collect() as report:
        doubled = analyze_optimized(result, params=other)
        boxed = analyze_optimized(polymage_overlap(result))
    assert result.work_summary == []
    assert report.counters["machine.analyze.computed"] == 2

    own = analyze_optimized(result, params=dict(program.params))  # own values, spelled out
    assert result.work_summary == own.as_builtins()
    assert own != doubled

    marker = [dict(own.as_builtins()[0], name="noticed if it were read")]
    result.work_summary[:] = marker
    assert analyze_optimized(result).clusters[0].name == "noticed if it were read"
    assert analyze_optimized(result, params=other) == doubled
    assert analyze_optimized(polymage_overlap(result)) == boxed
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


# -- the summary read: a warm sweep decodes nothing ------------------------


def _cold(tmp_path, candidates=GRID, size=256):
    """conv2d's cold sweep into ``tmp_path``, its cache and its counters."""
    program = get_workload("conv2d", size)
    cache = CompileCache(cache_dir=str(tmp_path))
    tuned, counted = _sweep(program, cache, candidates)
    keys = {
        sizes: CompileRequest(program, tile_sizes=sizes).fingerprint
        for sizes in tuned.evaluations
    }
    return program, tuned, cache, counted, keys


def test_a_warm_sweep_decodes_no_entry(tmp_path):
    program, cold, _cache, _counted, _keys = _cold(tmp_path)
    warm_cache = CompileCache(cache_dir=str(tmp_path))
    warm, counted = _sweep(program, warm_cache)
    assert "service.cache.decode" not in counted
    assert warm_cache.stats.disk_hits == 25
    assert counted["machine.analyze.reused"] == 25
    assert list(warm.evaluations.items()) == list(cold.evaluations.items())
    assert _answers(warm) == _answers(cold)


def test_a_cold_sweep_reads_each_entry_once(tmp_path):
    """25 store reads, not 50: a summary miss is an ``exists`` check."""
    _program, cold, cache, counted, _keys = _cold(tmp_path)
    assert len(cold.evaluations) == 25
    memo_reads = cache.stats.memo_hits + cache.stats.memo_misses
    assert memo_reads == 0  # a sweep's batch reads no memo snapshot
    assert cache.store.stats.get("gets") == 25
    assert cache.stats.misses == 25 and cache.stats.stores == 25
    assert "service.cache.decode" not in counted


def test_the_header_is_the_summary_the_entry_holds(tmp_path):
    _program, _cold_sweep, cache, _counted, keys = _cold(tmp_path)
    assert len(keys) == 25
    for key in keys.values():
        reader = CompileCache(cache_dir=str(tmp_path))
        from_header = reader.get_summary(key)  # the store's header
        assert from_header and from_header == reader.get(key).work_summary
        assert reader.get_summary(key) == from_header  # the tier's instance
        assert cache.get_summary(key) == from_header  # the cold tier's header
    assert cache.get_summary("ab" * 32) is None


def test_a_partly_warm_sweep_answers_in_grid_order(tmp_path):
    program, cold, _cache, _counted, keys = _cold(tmp_path)
    store = LocalStore(str(tmp_path))
    for key in list(keys.values())[::2]:
        assert store.delete("results", key)
    warm_cache = CompileCache(cache_dir=str(tmp_path))
    warm, counted = _sweep(program, warm_cache)
    assert warm_cache.stats.disk_hits == 12 and warm_cache.stats.misses == 13
    assert counted["machine.analyze.computed"] == 13
    assert list(warm.evaluations.items()) == list(cold.evaluations.items())
    assert _answers(warm) == _answers(cold)


def _summary_without(field):
    def header(summary):
        return json.dumps([{k: v for k, v in c.items() if k != field} for c in summary])

    return header


HOSTILE_HEADERS = {
    "truncated": None,
    "not json": lambda summary: b"this is not json",
    "object, not list": lambda summary: json.dumps({"clusters": summary}),
    "pickle": lambda summary: pickle.dumps(summary),
    "missing field": _summary_without("wavefront"),
    "nested too deep": lambda summary: "[" * 100_000 + "]" * 100_000,
}


def _hostile(blob, kind, summary):
    """``blob``, a stored result entry, with a hostile header in front of
    its pickle."""
    (size,) = struct.unpack_from(">I", blob)
    if kind == "truncated":
        return blob[: 4 + size // 2]
    header = HOSTILE_HEADERS[kind](summary)
    header = header.encode() if isinstance(header, str) else header
    return struct.pack(">I", len(header)) + header + blob[4 + size:]


@pytest.mark.parametrize("kind", sorted(HOSTILE_HEADERS))
def test_a_bad_header_is_an_error_an_eviction_and_a_miss(tmp_path, kind):
    program, cold, cache, _counted, keys = _cold(tmp_path, SMALL, 64)
    key = keys[(16, 16)]
    summary = cache.get_summary(key)
    store = LocalStore(str(tmp_path))
    good = store.get("results", key)
    bad = _hostile(good, kind, summary)
    assert store.delete("results", key) and store.put("results", key, bad)

    # store tier: the sweep recompiles that candidate and answers as before
    warm_cache = CompileCache(cache_dir=str(tmp_path))
    warm, counted = _sweep(program, warm_cache, SMALL)
    assert _answers(warm) == _answers(cold)
    assert warm_cache.stats.errors == 1 and warm_cache.stats.disk_evictions == 1
    assert warm_cache.stats.disk_hits == 8 and warm_cache.stats.stores == 1
    assert counted["machine.analyze.computed"] == 1
    assert CompileCache(cache_dir=str(tmp_path)).get_summary(key) == summary  # put back

    # memory tier: evicted, and the store's good entry answers
    memory = CompileCache(cache_dir=str(tmp_path))
    memory.put(key, cache.get(key))
    memory._mem[key].blob = bad
    assert memory.get_summary(key) == summary
    assert memory.stats.errors == 1 and memory.stats.memory_evictions == 1
    assert memory.stats.disk_hits == 1 and memory.stats.memory_hits == 0


# -- the start-up half: pickled once per program, shared once decoded --------


def test_a_decoded_entry_keeps_the_identities_its_result_had(tmp_path):
    program, _cold_sweep, _cache, _counted, keys = _cold(tmp_path, SMALL, 64)
    reader = CompileCache(cache_dir=str(tmp_path))
    for key in keys.values():
        reader.get(key)
    hits = [reader._mem[key].obj for key in keys.values()]  # the decoded instances
    for hit in hits:
        assert hit.tree is hit.scheduled.tree
        members = {id(g) for g in hit.scheduled.groups}
        extensions = [e for e in hit.mixed.entries if e not in hit.mixed.tiling_entries()]
        assert all(id(e.group) in members for e in hit.mixed.entries)
        assert all(id(e.target) in members for e in extensions)
        found = [e for t in hit.mixed.tiling_entries() for e in hit.mixed.extensions_of(t.group)]
        assert len(found) == len(extensions) > 0
    first = hits[0]
    domains = {id(s.domain) for s in first.program.statements}
    tree_domains = [s for n in _domain_nodes(first.tree) for s in n.domain.sets.values()]
    assert tree_domains and {id(s) for s in tree_domains} <= domains
    for hit in hits[1:]:
        assert hit.program is first.program and hit.scheduled.program is first.program
        assert hit.scheduled.groups is first.scheduled.groups
        assert hit.scheduled.deps is first.scheduled.deps
    assert first.program is not program  # decoded, not the writer's object


def _domain_nodes(tree):
    from repro.schedule import DomainNode

    return [n for n in tree.walk() if isinstance(n, DomainNode)]


def test_a_cold_sweep_pickles_its_program_once(tmp_path, monkeypatch):
    from repro.ir import Program

    pickled = []
    real = Program.__getstate__

    def counting(self):
        pickled.append(self.name)
        return real(self)

    monkeypatch.setattr(Program, "__getstate__", counting)
    program = get_workload("conv2d", 256)
    tuned, _counted = _sweep(program, CompileCache(cache_dir=str(tmp_path)))
    assert len(tuned.evaluations) == 25
    assert pickled == [program.name]


class _Ref:
    """Pickles as ``SharedRef(*args)``."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        from repro.core.pipeline import SharedRef

        return SharedRef, self.args


@pytest.mark.parametrize(
    "ref,startup",
    [
        (("bogus", 0), True),
        (("groups", 10_000), True),
        (("deps", -1), True),
        (("program", 0), True),
        (("domains", 64), True),
        (("program", None), False),  # no start-up half: outside a decode
    ],
    ids=["unknown-kind", "out-of-range", "negative", "program-index", "no-such-domain",
         "outside"],
)
def test_a_bad_shared_reference_is_a_miss_and_an_eviction(tmp_path, ref, startup):
    program, _cold_sweep, cache, _counted, keys = _cold(tmp_path, SMALL, 64)
    key = keys[(16, 16)]
    store = LocalStore(str(tmp_path))
    good = store.get("results", key)
    (size,) = struct.unpack_from(">I", good)
    (shared,) = struct.unpack_from(">I", good, 4 + size)
    head = good[: 4 + size]
    shared_half = good[4 + size : 8 + size + shared] if startup else struct.pack(">I", 0)
    bad = head + shared_half + pickle.dumps({"result": _Ref(*ref)})
    assert store.delete("results", key) and store.put("results", key, bad)

    reader = CompileCache(cache_dir=str(tmp_path))
    assert reader.get(key) is None
    assert reader.stats.errors == 1 and reader.stats.disk_evictions == 1
    assert reader.stats.misses == 1 and key not in reader

    # the memory tier: evicted, and nothing left to fall back on
    memory = CompileCache(cache_dir=str(tmp_path / "m"), persistent=False)
    memory.put(key, cache.get(key))
    memory._mem[key].blob = bad
    assert memory.get(key) is None
    assert memory.stats.errors == 1 and memory.stats.memory_evictions == 1


def test_a_shared_reference_resolves_only_inside_a_decode():
    from repro.core.pipeline import SharedRef

    with pytest.raises(pickle.UnpicklingError):
        SharedRef("program")
    program = get_workload("conv2d", 64)
    with SharedRef.resolving((program, [], [])):
        assert SharedRef("program") is program
    with pytest.raises(pickle.UnpicklingError):
        SharedRef("program")
