"""The compilation service layer: fingerprints, cache, driver, spans.

Covers the acceptance criteria of the service subsystem: content
addressing (structurally identical programs share a cache key), the
two-tier cache (memory hits, disk round-trips across processes,
corruption eviction), the deduplicating batch driver (error isolation,
bit-identical parity with the serial autotuner) and pass instrumentation.
"""

import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro import CompileOptions, obs
from repro.core import optimize
from repro.pipelines import conv2d, polybench
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
    """Digests as of schema 6, recorded before ``fingerprint_program`` moved
    to ``repro.ir.fingerprint``: a key that moves orphans every entry."""
    from repro.workloads import get_workload

    harris = get_workload("harris", 512)
    assert fingerprint_program(harris) == (
        "c83b4a7f93ee5037e77a1acf22b877e2a6830ccd1b1bc4116fbdc11573bd96ee"
    )
    assert fingerprint_request(harris, "cpu", (32, 256), "smartfuse") == (
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
    assert fresh.stats.errors == 1 and fresh.stats.disk_evictions == 1
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


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_compile_batch_parallel_modes(mode):
    p = build_conv()
    requests = [
        CompileRequest(p, tile_sizes=(16, 16)),
        CompileRequest(p, tile_sizes=(8, 8)),
        CompileRequest(p, target="bogus"),
    ]
    try:
        outcomes = compile_batch(requests, options=CompileOptions(mode=mode, jobs=2))
    except OSError:
        pytest.skip(f"{mode} pool unavailable in this environment")
    serial = compile_batch(requests, options=CompileOptions(mode="serial"))
    for got, want in zip(outcomes, serial):
        assert got.ok == want.ok
        if got.ok:
            assert got.result.fusion_summary() == want.result.fusion_summary()
        else:
            assert got.error == want.error


def test_compile_batch_rejects_unknown_mode():
    with pytest.raises(ValueError):
        compile_batch([], options=CompileOptions(mode="warp"))


# -- autotune through the driver -------------------------------------------


@pytest.mark.parametrize(
    "builder, candidates",
    [
        (lambda: build_conv(64, 64), (8, 16, 32)),
        (lambda: polybench.BUILDERS["atax"](128), (8, 16)),
    ],
)
def test_autotune_parallel_matches_serial(builder, candidates):
    serial = autotune_tile_sizes(builder(), candidates=candidates, dims=2)
    parallel = autotune_tile_sizes(builder(), options=CompileOptions(mode="auto", jobs=2), candidates=candidates, dims=2)
    assert parallel.best_sizes == serial.best_sizes
    assert parallel.best_time == serial.best_time
    assert parallel.evaluations == serial.evaluations
    assert parallel.failures == serial.failures


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


# -- thread safety and interrupt handling ----------------------------------


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


def test_compile_batch_process_interrupt_aborts_pool(monkeypatch):
    """A KeyboardInterrupt mid-batch must terminate the worker pool and
    re-raise — not hang joining workers or orphan them."""
    from repro.service import driver

    events = []

    class FakeProcess:
        def __init__(self, pid):
            self.pid = pid

        def terminate(self):
            events.append(("terminate", self.pid))

        def join(self, timeout=None):
            events.append(("join", self.pid))

    class FakeFuture:
        def result(self):
            raise KeyboardInterrupt

    class FakePool:
        def __init__(self, max_workers=None):
            self._processes = {pid: FakeProcess(pid) for pid in (101, 102)}

        def submit(self, fn, payload):
            return FakeFuture()

        def shutdown(self, wait=True, cancel_futures=False):
            events.append(("shutdown", wait, cancel_futures))

    monkeypatch.setattr(driver, "ProcessPoolExecutor", FakePool)
    requests = [
        CompileRequest(build_conv(16, 16)),
        CompileRequest(build_conv(24, 24)),
    ]
    with pytest.raises(KeyboardInterrupt):
        compile_batch(requests, options=CompileOptions(mode="process"))
    assert ("shutdown", False, True) in events  # cancel_futures, no wait
    assert ("terminate", 101) in events and ("terminate", 102) in events
    assert ("join", 101) in events and ("join", 102) in events


def test_compile_batch_auto_mode_degrades_but_reraises_interrupt(monkeypatch):
    """auto mode falls back to threads on ordinary pool failures, but a
    KeyboardInterrupt still aborts the pool and propagates."""
    from repro.service import driver

    class FakeFuture:
        def result(self):
            raise KeyboardInterrupt

    class FakePool:
        def __init__(self, max_workers=None):
            self._processes = {}

        def submit(self, fn, payload):
            return FakeFuture()

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(driver, "ProcessPoolExecutor", FakePool)
    requests = [
        CompileRequest(build_conv(16, 16)),
        CompileRequest(build_conv(24, 24)),
    ]
    with pytest.raises(KeyboardInterrupt):
        compile_batch(requests, options=CompileOptions(mode="auto"))
