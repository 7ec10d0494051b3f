"""A warm hit does no work it has done before, and trusts no blob.

Counts, not clocks: the decode-once memory tier, request keys built from
the memoized program digest, named programs built once, and the
restricted decoder on the memory and disk paths.
"""

import os
import pickle
import sys
import threading

import pytest

from repro import CompileOptions, obs
from repro.codegen.cbackend import generate_c
from repro.codegen.gpu_mapping import map_to_gpu
from repro.codegen.printer import print_tree
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.service import cache as cache_mod
from repro.ir import fingerprint as fp_mod
from repro.service.cache import CompileCache
from repro.service.driver import CompileRequest, cached_optimize, compile_batch
from repro.service.fingerprint import fingerprint_request
from repro.service.store import LocalStore, restricted_loads
from repro.workloads import (
    UnknownWorkloadError,
    _build,
    build_workload,
    default_tile_sizes,
    get_workload,
)

KEY = "ab" * 32
WORKLOADS = [("harris", 64), ("conv2d", 32), ("covariance", 24)]


@pytest.fixture
def decodes(monkeypatch):
    """Every call the cache makes to the one decoder, as a list."""
    calls = []

    def counting(blob, allowed=()):
        calls.append(len(blob))
        return restricted_loads(blob, allowed)

    monkeypatch.setattr(cache_mod, "restricted_loads", counting)
    monkeypatch.setattr(
        pickle, "loads", lambda *a, **k: pytest.fail("unrestricted pickle.loads")
    )
    return calls


def _options(name, cache=None, target="cpu"):
    return CompileOptions(
        target=target, tile_sizes=default_tile_sizes(name), cache=cache
    )


def _views(result):
    """Everything a consumer derives from a result, as comparable values."""
    return (
        print_tree(result.tree, result.program, style="openmp"),
        print_tree(result.tree, result.program, style="cuda"),
        generate_c(result.tree, result.program),
        result.fusion_summary(),
        cpu_time(analyze_optimized(result), 32),
    )


# -- the hit path ----------------------------------------------------------


def test_hits_decode_once_and_canonicalise_once(tmp_path, decodes, monkeypatch):
    canonical = []
    real = fp_mod.canonical_program
    monkeypatch.setattr(
        fp_mod, "canonical_program", lambda p: canonical.append(id(p)) or real(p)
    )
    cache = CompileCache(cache_dir=str(tmp_path))
    program = build_workload("conv2d", 24)
    fp_mod._program_digests.pop(program, None)
    first = cached_optimize(program, _options("conv2d", cache))
    with obs.collect() as report:
        hits = [
            cached_optimize(get_workload("conv2d", 24), _options("conv2d", cache))
            for _ in range(20)
        ]
    assert cache.stats.memory_hits == 20 and cache.stats.misses == 1
    # the tier's own instance, on the first hit: its program's start-up
    # half, then the candidate half
    assert len(decodes) == 2
    assert report.counters["service.cache.decode"] == 1
    assert canonical == [id(program)]
    assert len({id(h.tree) for h in hits} | {id(first.tree)}) == 21
    assert all(h.program is hits[0].program for h in hits)
    assert hits[0].program is not program  # put never keeps the caller's object


def test_disk_warm_process_decodes_each_entry_once(tmp_path, decodes):
    program = build_workload("conv2d", 24)
    cached_optimize(program, _options("conv2d", CompileCache(cache_dir=str(tmp_path))))
    reader = CompileCache(cache_dir=str(tmp_path))
    for _ in range(5):
        cached_optimize(program, _options("conv2d", reader))
    assert reader.stats.disk_hits == 1 and reader.stats.memory_hits == 4
    assert len(decodes) == 2  # the start-up half and the candidate half, once


def test_values_without_fresh_are_decoded_per_hit(tmp_path, decodes):
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put(KEY, {"tiles": [1, 2]})
    a, b = cache.get(KEY), cache.get(KEY)
    assert a == b == {"tiles": [1, 2]} and a is not b and a["tiles"] is not b["tiles"]
    assert len(decodes) == 2


@pytest.mark.parametrize("name,size", WORKLOADS)
def test_rewriting_a_handed_out_tree_never_reaches_the_next_hit(tmp_path, name, size):
    cache = CompileCache(cache_dir=str(tmp_path))
    program = build_workload(name, size)
    expected = _views(optimize(program, _options(name)))
    miss = cached_optimize(program, _options(name, cache))
    map_to_gpu(miss)
    hit = cached_optimize(program, _options(name, cache))
    assert _views(hit) == expected
    map_to_gpu(hit)
    assert print_tree(hit.tree, program, style="cuda") != expected[1]
    again = cached_optimize(program, _options(name, cache))
    assert _views(again) == expected
    assert cache.stats.memory_hits == 2


def test_concurrent_hits_get_distinct_trees_and_identical_code(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    program = build_workload("conv2d", 24)
    tiles = [(4, 4), (8, 8), (4, 8), (8, 4)]
    code = {}
    for t in tiles:
        r = cached_optimize(program, CompileOptions(tile_sizes=t, cache=cache))
        code[t] = print_tree(r.tree, program)
    n_threads, n_hits = 8, 200
    got, errors = [], []
    barrier = threading.Barrier(n_threads)

    def hammer(seed):
        try:
            barrier.wait(10)
            mine = []
            for i in range(n_hits):
                t = tiles[(seed + i) % len(tiles)]
                r = cached_optimize(program, CompileOptions(tile_sizes=t, cache=cache))
                mine.append((t, r))
            got.extend(mine)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(got) == n_threads * n_hits
    assert len({id(r.tree) for _, r in got}) == len(got)
    assert cache.stats.memory_hits == len(got)
    for t, r in got[:: n_hits // 4]:
        assert print_tree(r.tree, program) == code[t]
    # Threads racing on a first hit may each have decoded; one instance stays.
    assert all(e.obj is not None for e in cache._mem.values())


def test_compile_batch_duplicates_each_get_their_own_tree(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    program = build_workload("conv2d", 24)
    requests = [CompileRequest(program, tile_sizes=(8, 8)) for _ in range(3)]
    for from_cache in (False, True):
        outcomes = compile_batch(requests, CompileOptions(mode="serial", cache=cache))
        assert [o.from_cache for o in outcomes] == [from_cache] * 3
        assert len({id(o.result.tree) for o in outcomes}) == 3
        assert len({print_tree(o.result.tree, program) for o in outcomes}) == 1


@pytest.mark.parametrize("warm", [False, True])
def test_rewriting_a_duplicates_representative_first_never_reaches_the_others(
    tmp_path, warm
):
    """``fresh()`` copies on read, so whatever the duplicates view must not
    be what the caller rewrites: the representative is mapped before any
    duplicate's tree is read, and the duplicates still print unmapped."""
    cache = CompileCache(cache_dir=str(tmp_path))
    program = build_workload("conv2d", 24)
    expected = print_tree(
        optimize(program, CompileOptions(tile_sizes=(8, 8))).tree, program, style="cuda"
    )
    requests = [CompileRequest(program, tile_sizes=(8, 8)) for _ in range(3)]
    options = CompileOptions(mode="serial", cache=cache)
    if warm:
        compile_batch(requests[:1], options)
    first, *duplicates = compile_batch(requests, options)
    assert [o.from_cache for o in (first, *duplicates)] == [warm] * 3
    map_to_gpu(first.result)
    assert print_tree(first.result.tree, program, style="cuda") != expected
    for out in duplicates:
        assert print_tree(out.result.tree, program, style="cuda") == expected


@pytest.fixture
def tree_copies(monkeypatch):
    """Every whole-tree copy (``DomainNode.copy``), as a list."""
    from repro.schedule import DomainNode

    calls = []
    real = DomainNode.copy

    def counting(self):
        calls.append(id(self))
        return real(self)

    monkeypatch.setattr(DomainNode, "copy", counting)
    return calls


def test_a_memory_hit_copies_its_tree_only_when_read(tmp_path, tree_copies):
    cache = CompileCache(cache_dir=str(tmp_path), persistent=False)
    program = build_workload("conv2d", 24)
    miss = cached_optimize(program, _options("conv2d", cache))
    hits = [cached_optimize(program, _options("conv2d", cache)) for _ in range(3)]
    assert tree_copies == [] and cache.stats.memory_hits == 3
    assert hits[0].fusion_summary() == miss.fusion_summary()
    assert hits[0].tile_sizes == miss.tile_sizes and tree_copies == []
    tree = hits[0].tree
    assert len(tree_copies) == 1
    assert hits[0].tree is tree and len(tree_copies) == 1
    assert print_tree(tree, program) == print_tree(miss.tree, program)
    again = hits[0].fresh()  # a view of a read view copies on its own read
    assert len(tree_copies) == 1 and again.tree is not tree
    assert len(tree_copies) == 2


def test_a_pickled_view_decodes_to_the_eager_result(tmp_path, tree_copies):
    program = build_workload("conv2d", 24)
    eager = optimize(program, _options("conv2d"))
    analyze_optimized(eager)
    view = eager.fresh()
    blob = pickle.dumps(view)
    assert tree_copies == []
    decoded = restricted_loads(blob, cache_mod.BLOB_GLOBALS)
    assert type(decoded) is type(eager)
    assert decoded.work_summary == eager.work_summary != []
    for style in ("openmp", "cuda"):
        assert print_tree(decoded.tree, program, style=style) == print_tree(
            eager.tree, program, style=style
        )
    # A view that was read and rewritten pickles its own tree.
    map_to_gpu(view)
    mapped = pickle.loads(pickle.dumps(view))
    assert print_tree(mapped.tree, program, style="cuda") == print_tree(
        view.tree, program, style="cuda"
    ) != print_tree(eager.tree, program, style="cuda")


def test_memory_tier_copies_share_the_summary_and_not_the_tree(tmp_path, decodes):
    cache = CompileCache(cache_dir=str(tmp_path), persistent=False)
    program = build_workload("conv2d", 24)
    request = CompileRequest(program, tile_sizes=(8, 8), tag="autotune")
    (miss,) = compile_batch([request], CompileOptions(mode="serial", cache=cache))
    with obs.collect() as report:
        a, b = (
            compile_batch([request], CompileOptions(mode="serial", cache=cache))[0].result
            for _ in range(2)
        )
        assert analyze_optimized(a) == analyze_optimized(b) == analyze_optimized(miss.result)
    # one decode of the entry: its start-up half and its candidate half
    assert len(decodes) == 2 and cache.stats.memory_hits == 2
    assert "machine.analyze.computed" not in report.counters
    assert a.work_summary is b.work_summary is cache._mem[request.fingerprint].obj.work_summary
    assert a.work_summary == miss.result.work_summary
    assert a.tree is not b.tree
    map_to_gpu(a)
    assert print_tree(b.tree, program, style="cuda") == print_tree(
        miss.result.tree, program, style="cuda"
    )


def test_the_fusion_summary_is_derived_once_and_never_pickled(monkeypatch):
    """A view's first ``fusion_summary()`` is kept where the result and
    every other view find it, each call hands out new lists, and the
    entry's bytes are the same before and after the summary was asked."""
    from repro.core.tile_shapes import MixedSchedules

    program = build_workload("harris", 64)
    result = optimize(program, _options("harris"))
    cache = CompileCache(persistent=False)
    before = cache._encode(result)
    calls = []
    real = MixedSchedules.fused_groups
    monkeypatch.setattr(
        MixedSchedules, "fused_groups", lambda self: calls.append(1) or real(self)
    )
    first, second = result.fresh(), result.fresh()
    summary = first.fusion_summary()
    assert summary == second.fusion_summary() == result.fusion_summary()
    assert summary == [
        sorted((s for g in c for s in g.statements), key=program.statement_index)
        for c in real(result.mixed)
    ]
    assert len(calls) == 1
    summary[0].append("mutated")
    assert "mutated" not in result.fusion_summary()[0]
    assert cache._encode(result) == before
    clone = pickle.loads(pickle.dumps(result))
    assert clone.fusion_summary() == result.fusion_summary() and len(calls) == 2


# -- keys and names --------------------------------------------------------


def test_request_key_is_the_program_digest_plus_the_request(monkeypatch):
    a = build_workload("conv2d", 24)
    _build.cache_clear()
    b = build_workload("conv2d", 24)
    assert a is not b
    base = fingerprint_request(a, "cpu", (8, 8), "smartfuse")
    assert fingerprint_request(b, "cpu", (8, 8), "smartfuse") == base
    others = {
        fingerprint_request(a, "gpu", (8, 8), "smartfuse"),
        fingerprint_request(a, "cpu", (4, 8), "smartfuse"),
        fingerprint_request(a, "cpu", None, "smartfuse"),
        fingerprint_request(a, "cpu", (8, 8), "maxfuse"),
        fingerprint_request(build_workload("conv2d", 32), "cpu", (8, 8), "smartfuse"),
    }
    assert len(others) == 5 and base not in others


def test_build_workload_builds_a_name_once_and_is_bounded():
    _build.cache_clear()
    a = build_workload("conv2d", 24)
    assert build_workload("conv2d", size=24) is a
    assert get_workload("conv2d", 24) is a
    assert build_workload("conv2d", 32) is not a
    assert build_workload("conv2d") is build_workload("conv2d", None)
    for _ in range(2):
        with pytest.raises(UnknownWorkloadError):
            build_workload("no-such-workload", 8)
    info = _build.cache_info()
    assert info.maxsize == 64 and info.misses == 5  # 3 built + 2 refused
    for size in range(8, 8 + 2 * info.maxsize):
        build_workload("conv2d", size)
    assert _build.cache_info().currsize == info.maxsize
    assert build_workload("conv2d", 24) is not a  # aged out, rebuilt equal
    assert fp_mod.fingerprint_program(build_workload("conv2d", 24)) == (
        fp_mod.fingerprint_program(a)
    )


# -- hostile, truncated and stale blobs ------------------------------------


class _Boom:
    """Pickles to a blob that would run ``os.system`` when loaded."""

    def __reduce__(self):
        return (os.system, ("echo pwned > " + self.path,))

    def __init__(self, path):
        self.path = path


def _bad_blobs(tmp_path):
    good = pickle.dumps({"v": 1})
    return {
        "hostile": pickle.dumps(_Boom(str(tmp_path / "pwned"))),
        "nested-name": b"\x80\x04\x8c\x10repro.ir.program\x8c\x09np.memmap\x93.",
        "function": pickle.dumps(optimize),  # in an allowed package, not a class
        "truncated": good[:-3],
        "garbage": b"this is not a pickle",
    }


def test_restricted_loads_admits_only_listed_classes(tmp_path):
    from repro.presburger import parse_set

    s = parse_set("{ S[i] : 0 <= i < 4 }")
    allowed = ("repro.presburger.",)
    assert str(restricted_loads(pickle.dumps(s), allowed)) == str(s)
    with pytest.raises(pickle.UnpicklingError):
        restricted_loads(pickle.dumps(s), ())
    with pytest.raises(pickle.UnpicklingError):
        restricted_loads(pickle.dumps(s), ("repro.presburger.set_.Se.",))
    assert restricted_loads(pickle.dumps(("m", 5, KEY, b"x"))) == ("m", 5, KEY, b"x")
    for name, blob in _bad_blobs(tmp_path).items():
        with pytest.raises(Exception):
            restricted_loads(blob, cache_mod.BLOB_GLOBALS)
    assert not (tmp_path / "pwned").exists()


@pytest.mark.parametrize("kind", ["hostile", "nested-name", "function", "truncated", "garbage"])
def test_bad_blob_is_an_error_an_eviction_and_a_miss_on_every_tier(tmp_path, kind):
    blob = _bad_blobs(tmp_path)[kind]

    # memory tier, then fall through to the store, which holds a good entry
    cache = CompileCache(cache_dir=str(tmp_path / "m"))
    cache.put(KEY, {"v": 1})
    cache._mem[KEY].blob = blob
    assert cache.get(KEY) == {"v": 1}
    assert cache.stats.errors == 1 and cache.stats.memory_evictions == 1
    assert cache.stats.disk_hits == 1 and cache.stats.misses == 0

    # disk tier: a well-formed envelope around a bad payload
    LocalStore(str(tmp_path / "d")).put("results", KEY, blob)
    LocalStore(str(tmp_path / "d")).put("memos", KEY, blob)
    disk = CompileCache(cache_dir=str(tmp_path / "d"))
    assert disk.get(KEY) is None and disk.get_memos(KEY) is None
    assert disk.stats.errors == 2 and disk.stats.disk_evictions == 2
    assert disk.stats.misses == 1 and KEY not in disk
    assert disk.info()["disk_entries"] == 0 and disk.info()["memo_entries"] == 0
    assert not (tmp_path / "pwned").exists()


def test_envelope_may_name_no_global_and_stale_schema_is_evicted(tmp_path):
    store = LocalStore(str(tmp_path))
    for i, entry in enumerate([
        _Boom(str(tmp_path / "pwned")),
        ("repro-cache", fp_mod.SCHEMA_VERSION - 1, None, b"payload"),
        ("repro-cache", fp_mod.SCHEMA_VERSION, None, "not bytes"),
    ]):
        key = f"{i:02d}" + "0" * 62
        if isinstance(entry, tuple):
            entry = entry[:2] + (key,) + entry[3:]
        path = store.path("results", key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            pickle.dump(entry, f)
        cache = CompileCache(cache_dir=str(tmp_path))
        assert cache.get(key) is None
        counters = cache.counters()
        assert counters["tier.local.errors"] == 1 and counters["tier.local.evictions"] == 1
        assert not os.path.exists(path)
    assert not (tmp_path / "pwned").exists()



def test_an_entry_that_names_numpy_is_evicted_and_recompiled_under_its_key(tmp_path):
    import numpy as np

    from repro.pipelines import conv2d

    old, new = (conv2d.build({"H": 16, "W": 16}) for _ in range(2))
    for tensor in old.tensors.values():
        tensor.dtype = np.float64  # what every tensor held before dtypes were strings
    key = fingerprint_request(new, "cpu", (8, 8), "smartfuse")
    assert fingerprint_request(old, "cpu", (8, 8), "smartfuse") == key

    cached_optimize(old, CompileOptions(tile_sizes=(8, 8), cache=CompileCache(str(tmp_path))))
    path = LocalStore(str(tmp_path)).path("results", key)
    with open(path, "rb") as f:
        assert b"numpy" in f.read()  # the start-up half pickles np.float64

    cache = CompileCache(str(tmp_path))
    result = cached_optimize(new, CompileOptions(tile_sizes=(8, 8), cache=cache))
    counters = cache.counters()
    assert counters["errors"] == 1 and counters["disk_evictions"] == 1
    assert counters["misses"] == 1 and counters["stores"] == 1
    with open(path, "rb") as f:
        assert b"numpy" not in f.read()

    warm = CompileCache(str(tmp_path))
    assert _views(warm.get(key)) == _views(result)
    assert warm.counters()["disk_hits"] == 1 and warm.counters()["errors"] == 0
