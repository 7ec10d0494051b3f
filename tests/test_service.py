"""The compilation service layer: fingerprints, cache, driver, spans.

Covers the acceptance criteria of the service subsystem: content
addressing (structurally identical programs share a cache key), the
two-tier cache (memory hits, disk round-trips across processes,
corruption eviction), the deduplicating batch driver (error isolation,
cache reuse) and pass instrumentation.
"""

import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro import CompileOptions, obs
from repro.core import optimize
from repro.pipelines import conv2d
from repro.scheduler.autotune import autotune_tile_sizes
from repro.service import (
    CompileCache,
    CompileRequest,
    cached_optimize,
    compile_batch,
    fingerprint_program,
    fingerprint_request,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def build_conv(h=32, w=32):
    return conv2d.build({"H": h, "W": w, "KH": 3, "KW": 3})


# -- fingerprints ----------------------------------------------------------


def test_fingerprint_is_content_addressed():
    a = build_conv()
    b = build_conv()  # independent builder, same structure
    assert a is not b
    assert fingerprint_program(a) == fingerprint_program(b)
    assert fingerprint_request(a, "cpu", (16, 16)) == fingerprint_request(
        b, "cpu", (16, 16)
    )


def test_fingerprints_are_the_ones_caches_already_hold():
    """Digests as of schema 8.  Schema 7's and schema 6's, spelled with
    their salts, still come out of the same canonical forms, so each bump
    moved the salt and nothing else: a key that moves orphans every entry."""
    from repro.ir.fingerprint import canonical_program, digest_of
    from repro.service.fingerprint import canonical_request
    from repro.workloads import get_workload

    harris = get_workload("harris", 512)
    assert fingerprint_program(harris) == (
        "0ae47047a70b2fe8eeb2c5b1e8d2846ed3fe3532f08c3bd400bec04f05d479e9"
    )
    assert fingerprint_request(harris, "cpu", (32, 256), "smartfuse") == (
        "052f9e4f2a6399d8eace148003d6126fbbc33648238d6b86249bb36ca6ad3479"
    )
    request = canonical_request(harris, "cpu", (32, 256), "smartfuse")
    v7 = digest_of({"salt": "repro-compile-v7", "program": canonical_program(harris)})
    assert v7 == "c0b86f5e689df2b7f193d5f8afbb81dddbb057014f56005761808f5cd3972aeb"
    assert digest_of(dict(request, salt="repro-compile-v7", program=v7)) == (
        "c4686ceba24b7ee794f2c952958377b0cb6ac4d564b19c35404f43491616a407"
    )
    v6 = digest_of({"salt": "repro-compile-v6", "program": canonical_program(harris)})
    assert v6 == "c83b4a7f93ee5037e77a1acf22b877e2a6830ccd1b1bc4116fbdc11573bd96ee"
    assert digest_of(dict(request, salt="repro-compile-v6", program=v6)) == (
        "5cc2de615d8a3a4f58193cc9a9c593167b7338db38fbd31abea665ac859bc67e"
    )


def test_fingerprint_sensitivity():
    p = build_conv()
    base = fingerprint_request(p, "cpu", (16, 16))
    assert fingerprint_request(p, "cpu", (8, 8)) != base
    assert fingerprint_request(p, "gpu", (16, 16)) != base
    assert fingerprint_request(p, "cpu", (16, 16), startup="maxfuse") != base
    assert fingerprint_request(p, "cpu", None) != base
    bigger = build_conv(64, 64)
    assert fingerprint_request(bigger, "cpu", (16, 16)) != base


def test_the_request_memo_is_keyed_by_value():
    """``fingerprint_request`` keeps its digests in a bounded memo keyed
    by value; every answer is the digest of the canonical request, however
    the target and the tile sizes are spelled, and a spec that differs in
    one field, even ``8`` for ``8.0``, is another key."""
    import dataclasses

    from repro.core.tile_shapes import TARGETS
    from repro.ir.fingerprint import digest_of
    from repro.scheduler import HEURISTICS
    from repro.service.fingerprint import (
        REQUEST_DIGESTS,
        _request_digest,
        canonical_request,
    )

    p = build_conv()
    for name, spec in TARGETS.items():
        for tiles in ([16, 8], (16, 8), None):
            for startup in HEURISTICS:
                want = digest_of(canonical_request(p, name, tiles, startup))
                for target in (name, spec):
                    for _ in range(2):  # the miss, then the memo's answer
                        assert fingerprint_request(p, target, tiles, startup) == want
    cpu = TARGETS["cpu"]
    base = fingerprint_request(p, cpu, (16, 16))
    for changed in (
        dataclasses.replace(cpu, name="cpu2"),
        dataclasses.replace(cpu, m_cap=2),
        dataclasses.replace(cpu, min_m=0),
        dataclasses.replace(cpu, max_recompute=8),
        dataclasses.replace(cpu, max_recompute_ratio=2.5),
        dataclasses.replace(cpu, scratch_bytes=cpu.scratch_bytes + 1),
    ):
        got = fingerprint_request(p, changed, (16, 16))
        assert got != base
        assert got == digest_of(canonical_request(p, changed, (16, 16)))
    # Values the key cannot tell from equal ones of another type bypass it.
    assert fingerprint_request(p, "cpu", (True, 16)) == digest_of(
        canonical_request(p, "cpu", (True, 16))
    ) != fingerprint_request(p, "cpu", (1, 16))
    assert _request_digest.cache_info().maxsize == REQUEST_DIGESTS


def test_fingerprint_unknown_target_does_not_raise():
    p = build_conv()
    fp = fingerprint_request(p, "bogus", (16, 16))
    assert fp != fingerprint_request(p, "cpu", (16, 16))


# -- cache -----------------------------------------------------------------


def test_second_optimize_served_from_cache(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    p = build_conv()
    r1 = cached_optimize(p, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    assert cache.stats.misses == 1 and cache.stats.stores == 1

    r2 = cached_optimize(build_conv(), options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1
    assert r2.fusion_summary() == r1.fusion_summary()
    assert r2 is not r1  # hits hand out fresh copies, never shared state


def test_cache_round_trips_through_disk(tmp_path):
    p = build_conv()
    writer = CompileCache(cache_dir=str(tmp_path))
    r1 = cached_optimize(p, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=writer))

    reader = CompileCache(cache_dir=str(tmp_path))  # cold memory tier
    r2 = cached_optimize(build_conv(), options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=reader))
    assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
    assert r2.fusion_summary() == r1.fusion_summary()


def test_cache_round_trips_across_processes(tmp_path):
    script = (
        "from repro import CompileOptions\n"
        "from repro.pipelines import conv2d\n"
        "from repro.service import cached_optimize\n"
        "p = conv2d.build({'H': 32, 'W': 32, 'KH': 3, 'KW': 3})\n"
        "cached_optimize(p, options=CompileOptions(target='cpu', tile_sizes=(16, 16)))\n"
    )
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", script], check=True, env=env, timeout=300
    )

    cache = CompileCache(cache_dir=str(tmp_path))
    result = cached_optimize(build_conv(), options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    assert cache.stats.disk_hits == 1 and cache.stats.misses == 0
    assert result.fusion_summary() == optimize(
        build_conv(), CompileOptions(target="cpu", tile_sizes=(16, 16))
    ).fusion_summary()


def test_corrupted_entry_is_evicted_not_fatal(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    p = build_conv()
    key = fingerprint_request(p, "cpu", (16, 16))
    cached_optimize(p, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    path = cache.store.path("results", key)
    assert os.path.exists(path)
    with open(path, "wb") as f:
        f.write(b"this is not a pickle")

    fresh = CompileCache(cache_dir=str(tmp_path))
    assert fresh.get(key) is None
    assert not os.path.exists(path)
    counters = fresh.counters()
    assert counters["tier.local.errors"] == 1 and counters["tier.local.evictions"] == 1
    # And a full cached_optimize still works afterwards.
    cached_optimize(build_conv(), options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=fresh))
    assert fresh.stats.stores == 1


def test_stale_schema_entry_is_evicted(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    key = "ab" + "0" * 62
    path = cache.store.path("results", key)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as f:
        pickle.dump(("repro-cache", -1, key, b"payload"), f)
    assert cache.get(key) is None
    assert not os.path.exists(path)


def test_memory_lru_is_bounded(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path), max_entries=2, persistent=False)
    for i, blob in enumerate(("a", "b", "c")):
        cache.put(f"k{i}", blob)
    assert cache.stats.memory_evictions == 1
    assert cache.get("k0") is None  # evicted, persistent=False
    assert cache.get("k2") == "c"


def test_cache_info_and_clear(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    cached_optimize(build_conv(), options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    info = cache.info()
    assert info["disk_entries"] == 1 and info["disk_bytes"] > 0
    assert info["memory_entries"] == 1
    assert info["memo_entries"] == 1  # the compile spilled its memo tables
    assert cache.clear() == 2  # the result entry plus the memo snapshot
    assert cache.info()["disk_entries"] == 0
    assert cache.info()["memo_entries"] == 0


# -- batch driver ----------------------------------------------------------


def test_compile_batch_dedupes_and_isolates_errors():
    p = build_conv()
    requests = [
        CompileRequest(p, tile_sizes=(16, 16)),
        CompileRequest(p, tile_sizes=(16, 16)),  # duplicate fingerprint
        CompileRequest(p, tile_sizes=(8, 8)),
        CompileRequest(p, target="bogus"),  # must not kill the batch
    ]
    outcomes = compile_batch(requests, options=CompileOptions(mode="serial"))
    assert len(outcomes) == 4
    assert outcomes[0].fingerprint == outcomes[1].fingerprint
    assert outcomes[0].ok and outcomes[1].ok and outcomes[2].ok
    assert not outcomes[3].ok and "unknown target 'bogus'" in outcomes[3].error
    assert outcomes[0].result.fusion_summary() == outcomes[1].result.fusion_summary()


def test_compile_batch_uses_cache(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    p = build_conv()
    requests = [CompileRequest(p, tile_sizes=(16, 16))]
    first = compile_batch(requests, options=CompileOptions(mode="serial", cache=cache))
    assert not first[0].from_cache
    second = compile_batch(requests, options=CompileOptions(mode="serial", cache=cache))
    assert second[0].from_cache
    assert cache.stats.hits == 1


def test_compile_batch_rejects_unknown_mode():
    # A batch runs serially on the caller's thread: the thread, process
    # and process-pool modes are gone.
    for mode in ("warp", "thread", "process", "auto"):
        with pytest.raises(ValueError):
            compile_batch([], options=CompileOptions(mode=mode))


def test_an_all_hit_batch_dispatches_nothing(tmp_path, monkeypatch):
    from repro.service import driver

    cache = CompileCache(cache_dir=str(tmp_path))
    requests = [CompileRequest(build_conv(), tile_sizes=(16, 16))] * 2
    compile_batch(requests, options=CompileOptions(mode="serial", cache=cache))

    def boom(*args, **kwargs):
        raise AssertionError("an all-hit batch reached the compile path")

    for name in ("_run_request", "load_program_memos", "spill_program_memos"):
        monkeypatch.setattr(driver, name, boom)
    outcomes = compile_batch(requests, options=CompileOptions(mode="serial", cache=cache))
    assert all(o.ok and o.from_cache for o in outcomes)


def memo_files(cache_dir):
    """The memo snapshot files under ``cache_dir``."""
    return [f for _, _, files in os.walk(os.path.join(cache_dir, "memos")) for f in files]


def spy_on_memo_io(monkeypatch):
    """Record every ``get_memos``/``put_memos`` call on any cache, then
    let it run."""
    calls = []
    for name in ("get_memos", "put_memos"):
        real = getattr(CompileCache, name)

        def spy(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(CompileCache, name, spy)
    return calls


def test_a_batch_reads_and_writes_no_memo_snapshot(tmp_path, monkeypatch):
    # A batch runs where the memo tables already live (the daemon's
    # workers, a tuner's sweep): it compiles its misses without loading
    # or spilling a snapshot, even through a cache with a store.
    calls = spy_on_memo_io(monkeypatch)
    cache = CompileCache(cache_dir=str(tmp_path))
    requests = [
        CompileRequest(build_conv(), tile_sizes=(16, 16)),
        CompileRequest(build_conv(), tile_sizes=(8, 8), tag="autotune"),
    ]
    outcomes = compile_batch(requests, options=CompileOptions(mode="serial", cache=cache))
    assert all(o.ok and not o.from_cache for o in outcomes)
    assert cache.stats.stores == 2
    assert calls == []
    assert memo_files(tmp_path) == []


def test_only_a_programs_first_miss_spills_its_memo_snapshot(tmp_path, monkeypatch):
    # The store never rewrites a snapshot it holds, so a later miss of the
    # same program (another tiling) loads it and pickles nothing.
    calls = spy_on_memo_io(monkeypatch)
    cache = CompileCache(cache_dir=str(tmp_path))
    cached_optimize(build_conv(), CompileOptions(tile_sizes=(16, 16), cache=cache))
    assert calls == ["get_memos", "put_memos"]
    del calls[:]
    cached_optimize(build_conv(), CompileOptions(tile_sizes=(8, 8), cache=cache))
    assert calls == ["get_memos"]
    assert cache.stats.stores == 2 and len(memo_files(tmp_path)) == 1


# -- autotune through the driver -------------------------------------------


def test_autotune_warm_cache_reuses_results(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    p = build_conv()
    cold = autotune_tile_sizes(p, options=CompileOptions(cache=cache, mode="serial"), candidates=(8, 16), dims=2)
    stores = cache.stats.stores
    assert stores > 0
    with obs.collect() as report:
        warm = autotune_tile_sizes(p, options=CompileOptions(cache=cache, mode="serial"), candidates=(8, 16), dims=2)
    assert cache.stats.stores == stores  # nothing recompiled
    assert "machine.analyze.computed" not in report.counters  # nor costed again
    assert report.counters["machine.analyze.reused"] == stores
    assert cache.stats.hits >= stores
    assert warm.best_sizes == cold.best_sizes
    assert warm.best_time == cold.best_time


# -- instrumentation -------------------------------------------------------


def test_instrument_collects_pass_spans_and_counters():
    from repro.presburger import memo

    # The counters below measure a cold compile; operation memos warmed by
    # earlier tests would otherwise absorb the FM work this test asserts on.
    memo.clear_all()
    p = build_conv()
    with obs.collect() as report:
        optimize(p, CompileOptions(target="cpu", tile_sizes=(16, 16)))
    assert {"startup_fusion", "tile_shapes", "post_fusion"} <= set(report.spans)
    assert all(s.seconds >= 0 and s.calls == 1 for s in report.spans.values())
    assert report.counters.get("presburger.fm_eliminate", 0) > 0
    text = report.format()
    assert "per-pass timings" in text and "tile_shapes" in text


def test_instrument_noop_when_inactive():
    assert not obs.active()
    with obs.span("nothing"):
        obs.count("nothing")
    assert not obs.active()


def test_instrument_nested_collectors():
    with obs.collect() as outer:
        with obs.collect() as inner:
            with obs.span("x"):
                obs.count("c", 2)
    assert outer.spans["x"].calls == 1
    assert inner.spans["x"].calls == 1
    assert outer.counters["c"] == inner.counters["c"] == 2


def test_optimize_result_pickle_round_trip():
    p = build_conv()
    result = optimize(p, CompileOptions(target="cpu", tile_sizes=(16, 16)))
    clone = pickle.loads(pickle.dumps(result))
    assert clone.fusion_summary() == result.fusion_summary()
    assert clone.tile_sizes == result.tile_sizes
    assert clone.tree.pretty() == result.tree.pretty()


# -- thread safety ---------------------------------------------------------


def test_cache_memory_tier_is_thread_safe(tmp_path):
    """Concurrent get/put from many threads: no exceptions, no corruption,
    LRU bound respected, and the hit/miss ledger stays consistent."""
    cache = CompileCache(cache_dir=str(tmp_path), max_entries=8)
    n_threads, n_ops = 8, 150
    errors = []
    barrier = threading.Barrier(n_threads)

    def hammer(seed):
        try:
            barrier.wait(10)
            for i in range(n_ops):
                key = f"key-{(seed * 7 + i) % 24}"
                value = cache.get(key)
                if value is None:
                    cache.put(key, {"payload": key})
                else:
                    assert value["payload"] == key
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors
    # every get() was ledgered exactly once, under the lock
    stats = cache.stats
    assert stats.hits + stats.misses == n_threads * n_ops
    assert stats.stores == stats.misses  # each miss was followed by a put
    info = cache.info()
    assert info["memory_entries"] <= 8
    assert stats.memory_evictions > 0  # 24 keys through an 8-slot LRU
