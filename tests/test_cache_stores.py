"""The compile-cache fabric: stores, tiering, GC, degradation, sharing.

Covers the cache-fabric acceptance criteria end to end:

* ``LocalStore`` — byte-compatible sharded layout, content-addressed put
  skip, O(1) running counters, TTL + mtime-LRU garbage collection;
* ``StoreServer``/``HTTPStore`` — the shared remote tier over a real
  (loopback) HTTP server, including the batched memo fetch;
* ``LayeredStore`` — local-first reads, remote read-through with local
  backfill, write-behind flushing, and count-and-degrade when the remote
  tier is dead (zero request failures);
* ``CompileCache`` over the fabric — remote hits and put skips read from
  the tiers' own counters, batched ``get_memos_many``, pickling across
  processes, and spec resolution (``tiered:<local>|<remote>``,
  ``http://``, mappings);
* one counter per event — a scripted session pins every policy and tier
  counter per step;
* degraded disk — a read-only or full cache directory falls back to
  memory-only with ``tier.local.errors`` counted, never an exception;
* cross-process sharing — subprocesses hammering one store directory
  concurrently leave a consistent tree with zero corrupt-entry
  evictions;
* two compile daemons sharing one remote tier — the second daemon
  answers from the remote cache without compiling anything.
"""

import dataclasses
import errno
import logging
import os
import pickle
import subprocess
import sys
import tempfile
import time

import pytest

from repro.options import CompileOptions
from repro.service.cache import CacheStats, CompileCache, resolve_cache
from repro.service.stores import (
    HTTPStore,
    LayeredStore,
    LocalStore,
    StoreServer,
    StoreUnavailable,
    resolve_store,
)

KEY_A = "ab" * 32
KEY_B = "cd" * 32
KEY_C = "ef" * 32


def _quiet_cache_logs():
    logging.getLogger("repro.cache").setLevel(logging.ERROR)


# -- LocalStore ------------------------------------------------------------


def test_local_store_round_trip_and_layout(tmp_path):
    store = LocalStore(str(tmp_path))
    assert store.put("results", KEY_A, b"payload")
    assert store.get("results", KEY_A) == b"payload"
    assert store.contains("results", KEY_A)
    assert store.get("results", KEY_B) is None
    # sharded layout, memos nested under the results tree
    assert store.path("results", KEY_A) == str(
        tmp_path / KEY_A[:2] / f"{KEY_A}.pkl"
    )
    assert store.path("memos", KEY_A) == str(
        tmp_path / "memos" / KEY_A[:2] / f"{KEY_A}.pkl"
    )
    store.put("memos", KEY_B, b"snap")
    # memo entries never leak into the results walk
    assert [e.key for e in store.entries("results")] == [KEY_A]
    assert [e.key for e in store.entries("memos")] == [KEY_B]


def test_local_store_put_skips_existing_entry(tmp_path):
    store = LocalStore(str(tmp_path))
    store.put("results", KEY_A, b"payload")
    path = store.path("results", KEY_A)
    before = os.stat(path).st_mtime_ns
    assert store.put("results", KEY_A, b"payload")
    assert store.stats.get("put_skips") == 1
    # the skip really skipped: the file was not rewritten
    assert os.stat(path).st_mtime_ns == before


def test_local_store_running_counters_stay_in_sync(tmp_path):
    store = LocalStore(str(tmp_path))
    store.put("results", KEY_A, b"x" * 100)
    info = store.info()  # primes the counters with one walk
    assert info["entries"] == 1
    store.put("results", KEY_B, b"y" * 50)
    store.put("memos", KEY_C, b"z" * 10)
    store.delete("results", KEY_A)
    info = store.info()
    assert info["entries"] == 1
    assert info["memo_entries"] == 1
    # the incremental totals match an authoritative re-walk
    walked = sum(e.size for e in store.entries("results"))
    assert info["bytes"] == walked


def test_local_store_evicts_corrupt_entry(tmp_path):
    store = LocalStore(str(tmp_path))
    store.put("results", KEY_A, b"payload")
    path = store.path("results", KEY_A)
    with open(path, "wb") as f:
        f.write(b"this is not a pickle")
    assert store.get("results", KEY_A) is None
    assert not os.path.exists(path)
    assert store.stats.get("errors") == 1
    assert store.stats.get("evictions") == 1


def test_local_store_gc_ttl_and_lru(tmp_path):
    store = LocalStore(str(tmp_path))
    now = time.time()
    for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
        store.put("results", key, b"x" * 100)
        # KEY_A oldest, KEY_C newest
        os.utime(store.path("results", key), (now - 100 + i, now - 100 + i))

    dry = store.gc(max_age=50.0, dry_run=True)
    assert dry.expired == 3 and dry.dry_run
    assert store.get("results", KEY_A) is not None  # dry run removed nothing

    report = store.gc(max_bytes=450)  # each entry is ~200 bytes framed
    assert report.evicted == 1
    assert store.get("results", KEY_A) is None  # oldest evicted first
    assert store.get("results", KEY_B) is not None
    assert store.get("results", KEY_C) is not None

    report = store.gc(max_age=0.0)
    assert report.expired == 2
    assert report.remaining_entries == 0


def test_local_store_opportunistic_gc_on_put(tmp_path):
    store = LocalStore(str(tmp_path), gc_max_bytes=300)
    store.info()  # prime the running byte counters
    for key in (KEY_A, KEY_B, KEY_C):
        store.put("results", key, b"x" * 200)
        time.sleep(0.01)  # distinct mtimes for deterministic LRU order
    # every put after the budget was exceeded swept down to the budget
    total = sum(e.size for e in store.entries("results"))
    assert total <= 300 + 300  # at most one over-budget entry in flight


# -- StoreServer + HTTPStore -----------------------------------------------


def test_http_store_round_trip(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        client = HTTPStore(srv.url)
        assert client.ping()
        assert client.get("results", KEY_A) is None
        assert client.put("results", KEY_A, b"payload")
        assert client.get("results", KEY_A) == b"payload"
        assert client.contains("results", KEY_A)
        assert client.keys("results") == [KEY_A]
        # put-skip happens server-side in the backing LocalStore
        assert client.put("results", KEY_A, b"payload")
        assert srv.store.stats.get("put_skips") == 1
        # batched fetch: one round trip, only the hits come back
        client.put("memos", KEY_B, b"snap")
        got = client.get_many("memos", [KEY_B, KEY_C])
        assert got == {KEY_B: b"snap"}
        assert client.stats.get("batched_gets") == 1
        # maintenance over the wire
        assert client.info()["entries"] == 1
        report = client.gc(max_age=0.0)
        assert report.removed == 2
        assert client.delete("results", KEY_A) is False
        client.close()


def _dead_url(tmp_path):
    """The URL of a store server that has stopped listening."""
    srv = StoreServer(str(tmp_path / "remote"))
    srv.start()
    srv.stop()
    return srv.url


def test_http_store_dead_server_raises_store_unavailable(tmp_path):
    client = HTTPStore(_dead_url(tmp_path), timeout=0.5)
    with pytest.raises(StoreUnavailable):
        client.get("results", KEY_A)
    assert client.stats.get("errors") == 1
    client.close()


# -- LayeredStore ----------------------------------------------------------


def test_layered_store_write_behind_and_read_through(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        layered = LayeredStore(
            LocalStore(str(tmp_path / "a")), HTTPStore(srv.url)
        )
        layered.put("results", KEY_A, b"payload")
        assert layered.flush(5.0)
        # write-behind published the entry to the remote tier
        assert srv.store.get("results", KEY_A) == b"payload"

        # a different node with a cold local tier reads through + backfills
        other = LayeredStore(
            LocalStore(str(tmp_path / "b")), HTTPStore(srv.url)
        )
        assert other.get("results", KEY_A) == b"payload"
        assert other.stats.get("backfills") == 1
        assert other.local.get("results", KEY_A) == b"payload"
        layered.close()
        other.close()


def test_layered_store_get_many_batches_remote_misses(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        seed = HTTPStore(srv.url)
        seed.put("memos", KEY_A, b"remote-snap")
        layered = LayeredStore(
            LocalStore(str(tmp_path / "local")), HTTPStore(srv.url)
        )
        layered.local.put("memos", KEY_B, b"local-snap")
        got = layered.get_many("memos", [KEY_A, KEY_B, KEY_C])
        assert got == {KEY_A: b"remote-snap", KEY_B: b"local-snap"}
        # exactly one remote round trip for the two local misses
        assert layered.remote.stats.get("batched_gets") == 1
        # the remote hit was backfilled locally
        assert layered.local.get("memos", KEY_A) == b"remote-snap"
        layered.close()
        seed.close()


def test_layered_store_degrades_when_remote_dies(tmp_path):
    _quiet_cache_logs()
    srv = StoreServer(str(tmp_path / "remote"))
    srv.start()
    layered = LayeredStore(
        LocalStore(str(tmp_path / "local")),
        HTTPStore(srv.url, timeout=0.5),
        retry_interval=30.0,
    )
    layered.put("results", KEY_A, b"payload")
    assert layered.flush(5.0)
    srv.stop()

    # zero request failures: gets and puts keep working local-only
    assert layered.get("results", KEY_A) == b"payload"
    assert layered.get("results", KEY_B) is None  # first remote probe fails
    layered.put("results", KEY_C, b"more")
    assert layered.flush(5.0)
    assert layered.local.get("results", KEY_C) == b"more"

    # the tier was marked down: later misses skip the timeout entirely
    t0 = time.perf_counter()
    assert layered.get("results", KEY_B) is None
    assert time.perf_counter() - t0 < 0.25
    assert layered.stats.get("remote_down_skips") >= 1
    assert not layered.info()["remote"]["alive"]
    layered.close()


def test_layered_store_clear_spares_remote_by_default(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        layered = LayeredStore(
            LocalStore(str(tmp_path / "local")), HTTPStore(srv.url)
        )
        layered.put("results", KEY_A, b"payload")
        assert layered.flush(5.0)
        assert layered.clear("results") == 1
        assert srv.store.get("results", KEY_A) == b"payload"  # remote intact
        layered.clear("results", remote=True)
        assert srv.store.get("results", KEY_A) is None
        layered.close()


# -- CompileCache over the fabric ------------------------------------------


def test_tiered_cache_counts_remote_hits_and_backfills(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        warm = resolve_cache(f"tiered:{tmp_path / 'a'}|{srv.url}")
        warm.put(KEY_A, {"answer": 42})
        assert warm.flush(5.0)
        warm.close()

        cold = resolve_cache(f"tiered:{tmp_path / 'b'}|{srv.url}")
        assert cold.get(KEY_A) == {"answer": 42}
        assert cold.counters()["tier.remote.hits"] == 1
        assert cold.stats.disk_hits == 1  # any persistent tier counts
        # backfilled: the next cold-memory get is served locally
        cold._mem.clear()
        cold._mem_bytes = 0
        assert cold.get(KEY_A) == {"answer": 42}
        assert cold.counters()["tier.remote.hits"] == 1
        cold.close()


def test_tiered_cache_memos_round_trip_batched(tmp_path):
    with StoreServer(str(tmp_path / "remote")) as srv:
        a = resolve_cache(f"tiered:{tmp_path / 'a'}|{srv.url}")
        a.put_memos(KEY_A, {"table": [1, 2]})
        a.put_memos(KEY_B, {"table": [3]})
        assert a.flush(5.0)
        a.close()

        b = resolve_cache(f"tiered:{tmp_path / 'b'}|{srv.url}")
        got = b.get_memos_many([KEY_A, KEY_B, KEY_C])
        assert got == {KEY_A: {"table": [1, 2]}, KEY_B: {"table": [3]}}
        assert b.stats.memo_hits == 2
        assert b.stats.memo_misses == 1
        b.close()


def test_dead_remote_only_cache_is_a_miss_not_a_crash(tmp_path):
    from repro.service import cached_optimize
    from repro.workloads import build_workload

    cache = resolve_cache(_dead_url(tmp_path))
    result = cached_optimize(
        build_workload("harris", 64), options=CompileOptions(cache=cache)
    )
    assert result.tree is not None
    assert cache.stats.misses == 1 and cache.stats.stores == 1
    failed, memo_misses = cache.counters()["tier.remote.errors"], cache.stats.memo_misses
    assert cache.get_memos(KEY_A) is None
    assert cache.get_memos_many([KEY_A, KEY_B]) == {}
    cache.put_memos(KEY_A, {"m": 1})
    assert KEY_A not in cache
    assert cache.stats.memo_misses == memo_misses + 3
    # every call that reached for the store counted one remote error
    assert cache.counters()["tier.remote.errors"] == failed + 3


def test_daemon_on_a_dead_remote_only_cache_answers_a_compile(tmp_path):
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    config = ServeConfig(
        socket_path=str(tmp_path / "d.sock"), cache=_dead_url(tmp_path)
    )
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile("conv2d", size=16)
            assert out.get("error") is None and out["from_cache"] is False
            snap = client.stats()
    assert snap["gauges"]["serve.cache.tier.remote.errors"] >= 2  # get + put
    assert snap["gauges"]["serve.cache.misses"] == 1


def test_cache_put_skip_counted_in_stats(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put(KEY_A, {"v": 1})
    cache.put(KEY_A, {"v": 1})
    assert cache.stats.stores == 2
    assert cache.counters()["tier.local.put_skips"] == 1
    cache.put_memos(KEY_B, {"m": 1})
    cache.put_memos(KEY_B, {"m": 1})
    assert cache.stats.memo_stores == 2
    assert cache.counters()["tier.local.put_skips"] == 2


def test_cache_info_uses_running_counters_not_walks(tmp_path, monkeypatch):
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put(KEY_A, {"v": 1})
    first = cache.info()
    assert first["disk_entries"] == 1

    # once primed, info() must not re-walk the tree
    def boom(kind):
        raise AssertionError("info() walked the tree")

    monkeypatch.setattr(cache.store, "entries", boom)
    cache.put(KEY_B, {"v": 2})
    info = cache.info()
    assert info["disk_entries"] == 2
    assert info["disk_bytes"] > first["disk_bytes"]


def test_resolve_cache_fabric_specs(tmp_path):
    tiered = resolve_cache(f"tiered:{tmp_path / 'l'}|{tmp_path / 'r'}")
    assert isinstance(tiered.store, LayeredStore)
    assert tiered.spec == f"tiered:{tmp_path / 'l'}|{tmp_path / 'r'}"
    # a directory remote is a LocalStore wearing the remote tier label
    assert isinstance(tiered.store.remote, LocalStore)
    assert tiered.store.remote.tier == "remote"
    tiered.close()

    mapped = resolve_cache(
        {"local": str(tmp_path / "m"), "remote": str(tmp_path / "r2"),
         "max_entries": 4}
    )
    assert isinstance(mapped.store, LayeredStore)
    assert mapped.max_entries == 4
    mapped.close()

    with pytest.raises(ValueError):
        resolve_cache("tiered:only-one-part")

    options = CompileOptions(cache={"local": str(tmp_path / "o")})
    assert isinstance(options.cache, CompileCache)
    assert options.cache.cache_dir == str(tmp_path / "o")


def test_tiered_cache_pickles_across_process_boundary(tmp_path):
    cache = resolve_cache(f"tiered:{tmp_path / 'l'}|{tmp_path / 'r'}")
    cache.put(KEY_A, {"v": 7})
    assert cache.flush(5.0)
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.spec == cache.spec
    assert clone.get(KEY_A) == {"v": 7}
    cache.close()
    clone.close()


def test_compile_results_bit_identical_across_tiers(tmp_path):
    """The same fingerprint served local, remote or fresh must pickle to
    the same bytes (SCHEMA_VERSION-gated compatibility)."""
    from repro.codegen import print_tree
    from repro.service import cached_optimize
    from repro.workloads import build_workload

    def tree_of(cache):
        prog = build_workload("atax", 32)
        return print_tree(cached_optimize(prog, options=CompileOptions(cache=cache)).tree, prog)

    local_only = CompileCache(cache_dir=str(tmp_path / "solo"))
    baseline = tree_of(local_only)
    with StoreServer(str(tmp_path / "remote")) as srv:
        a = resolve_cache(f"tiered:{tmp_path / 'a'}|{srv.url}")
        assert tree_of(a) == baseline
        assert a.flush(5.0)
        a.close()
        b = resolve_cache(f"tiered:{tmp_path / 'b'}|{srv.url}")
        assert tree_of(b) == baseline
        assert b.counters()["tier.remote.hits"] >= 1  # served by the shared tier
        assert b.stats.misses == 0
        b.close()
    local_only.close()


# -- degraded disk (read-only / disk-full) ---------------------------------


def test_disk_full_put_degrades_to_memory_only(tmp_path, monkeypatch):
    cache = CompileCache(cache_dir=str(tmp_path))

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "mkstemp", no_space)
    cache.put(KEY_A, {"v": 1})  # must not raise
    assert cache.counters()["tier.local.errors"] == 1
    assert cache.get(KEY_A) == {"v": 1}  # memory tier still serves it
    monkeypatch.undo()
    fresh = CompileCache(cache_dir=str(tmp_path))
    assert fresh.get(KEY_A) is None  # nothing made it to disk
    assert fresh.stats.misses == 1


def test_read_only_dir_degrades_to_memory_only(tmp_path, monkeypatch):
    # Tests run as root (chmod is a no-op), so simulate EROFS at the
    # syscall boundary instead of flipping directory modes.
    cache = CompileCache(cache_dir=str(tmp_path / "ro"))

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(os, "makedirs", read_only)
    cache.put(KEY_A, {"v": 1})
    cache.put_memos(KEY_B, {"m": 2})
    assert cache.counters()["tier.local.errors"] == 2
    assert cache.get(KEY_A) == {"v": 1}
    monkeypatch.undo()
    assert cache.get_memos(KEY_B) is None  # memos have no memory tier
    assert cache.stats.memo_misses == 1


# -- cross-process sharing -------------------------------------------------

_HAMMER = r"""
import os, pickle, sys
sys.path.insert(0, {src!r})
from repro.service.stores import LocalStore

store = LocalStore({dir!r})
seed = int(sys.argv[1])
errors = 0
for round in range(40):
    key = "%064x" % (round % 10)          # contended: both children share keys
    mine = "%064x" % (1000 + seed * 100 + round)
    store.put("results", key, b"shared-" + str(round % 10).encode())
    store.put("results", mine, os.urandom(64))
    got = store.get("results", key)
    assert got is None or got == b"shared-" + str(round % 10).encode()
    if round % 10 == 9:
        store.gc(max_bytes=512 * 1024)    # generous: exercises the walk
errors += store.stats.get("errors")
print(pickle.dumps({{"errors": errors,
                     "evictions": store.stats.get("evictions")}}).hex())
"""


def test_concurrent_processes_share_one_store_dir(tmp_path):
    """Two subprocesses interleaving put/get/gc on one directory must
    leave a consistent tree and evict zero corrupt entries."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = _HAMMER.format(src=os.path.abspath(src), dir=str(tmp_path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(i)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for i in range(2)
    ]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
        stats = pickle.loads(bytes.fromhex(out.decode().strip()))
        assert stats["errors"] == 0
        assert stats["evictions"] == 0  # no corrupt entries, ever

    # the surviving tree is fully consistent: every entry loads cleanly
    store = LocalStore(str(tmp_path))
    for key in store.keys("results"):
        assert store.get("results", key) is not None
    assert store.stats.get("errors") == 0


# -- two daemons, one shared remote tier -----------------------------------


def test_second_daemon_answers_from_shared_remote_tier(tmp_path):
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    with StoreServer(str(tmp_path / "remote")) as srv:
        spec_a = f"tiered:{tmp_path / 'node_a'}|{srv.url}"
        config_a = ServeConfig(
            socket_path=str(tmp_path / "a.sock"), cache=spec_a
        )
        with ServerThread(config_a) as st_a:
            with ServeClient(socket_path=config_a.socket_path) as client:
                cold = client.compile("conv2d", size=16)
                assert cold["from_cache"] is False
            # drain flushes the write-behind queue to the remote tier
        assert st_a.server.cache.counters().get("tier.remote.hits", 0) == 0

        spec_b = f"tiered:{tmp_path / 'node_b'}|{srv.url}"
        config_b = ServeConfig(
            socket_path=str(tmp_path / "b.sock"), cache=spec_b
        )
        with ServerThread(config_b):
            with ServeClient(socket_path=config_b.socket_path) as client:
                warm = client.compile("conv2d", size=16)
                assert warm["from_cache"] is True
                assert warm["fingerprint"] == cold["fingerprint"]
                snap = client.stats()
            # daemon B compiled nothing: the shared tier answered
            assert snap["counters"].get("serve.compiles", 0) == 0
            assert snap["gauges"]["serve.cache.tier.remote.hits"] >= 1
            assert "serve.cache.remote_hits" not in snap["gauges"]
            assert "serve.cache.tier.remote.get_ms" in snap["histograms"]


# -- one counter per event: a scripted session -----------------------------

#: Per step of ``_session``: the non-zero ``CacheStats`` fields, then the
#: non-zero ``TierStats`` counters per tier.  The tier table was recorded
#: before ``CompileCache`` stopped copying store events into its own
#: ledger.  Back then ``errors``/``disk_evictions`` also held a copy of
#: ``tier.local.errors``/``tier.local.evictions`` (1 and 1 more from the
#: corrupt envelope on), ``remote_hits`` a copy of ``tier.remote.hits`` and
#: ``skipped_stores`` of ``tier.local.put_skips``; the policy table below is
#: what is left once those copies are gone.
SESSION = [
    ("put", {"stores": 1},
     {"layered": {"flush_queued": 1}, "local": {"puts": 1},
      "remote": {"puts": 1}}),
    ("put again", {"stores": 2},
     {"layered": {"flush_queued": 2}, "local": {"put_skips": 1, "puts": 2},
      "remote": {"put_skips": 1, "puts": 2}}),
    ("memory get", {"memory_hits": 1, "stores": 2},
     {"layered": {"flush_queued": 2}, "local": {"put_skips": 1, "puts": 2},
      "remote": {"put_skips": 1, "puts": 2}}),
    ("store get", {"disk_hits": 1, "memory_hits": 1, "stores": 2},
     {"layered": {"flush_queued": 2},
      "local": {"gets": 1, "hits": 1, "put_skips": 1, "puts": 2},
      "remote": {"put_skips": 1, "puts": 2}}),
    ("remote read-through", {"disk_hits": 1},
     {"layered": {"backfills": 1}, "local": {"gets": 1, "misses": 1, "puts": 1},
      "remote": {"gets": 1, "hits": 1}}),
    ("corrupt envelope", {"disk_hits": 2},
     {"layered": {"backfills": 2},
      "local": {"errors": 1, "evictions": 1, "gets": 2, "misses": 2, "puts": 2},
      "remote": {"gets": 2, "hits": 2}}),
    ("os.system payload",
     {"disk_evictions": 1, "disk_hits": 2, "errors": 1, "misses": 1},
     {"layered": {"backfills": 2},
      "local": {"deletes": 1, "errors": 1, "evictions": 1, "gets": 3,
                "hits": 1, "misses": 2, "puts": 2},
      "remote": {"deletes": 1, "gets": 2, "hits": 2}}),
    ("memos hit+miss",
     {"disk_evictions": 1, "disk_hits": 2, "errors": 1, "memo_hits": 1,
      "memo_misses": 1, "memo_stores": 1, "misses": 1},
     {"layered": {"backfills": 2, "flush_queued": 1},
      "local": {"deletes": 1, "errors": 1, "evictions": 1, "gets": 5,
                "hits": 2, "misses": 3, "puts": 3},
      "remote": {"deletes": 1, "gets": 3, "hits": 2, "misses": 1, "puts": 1}}),
]


class _System:
    """Pickles to a payload that names ``os.system``."""

    def __reduce__(self):
        return (os.system, ("true",))


def _session(tmp_path):
    """Drive a tiered cache (its remote tier a second directory) through
    every store event once; yields ``(step, cache)`` after each step."""

    def forget_memory(cache):
        cache._mem.clear()
        cache._mem_bytes = 0

    a = resolve_cache(f"tiered:{tmp_path / 'a'}|{tmp_path / 'r'}")
    a.put(KEY_A, {"v": 1})
    assert a.flush(5.0)
    yield "put", a
    a.put(KEY_A, {"v": 1})
    assert a.flush(5.0)
    yield "put again", a
    assert a.get(KEY_A) == {"v": 1}
    yield "memory get", a
    forget_memory(a)
    assert a.get(KEY_A) == {"v": 1}
    yield "store get", a
    a.close()

    b = resolve_cache(f"tiered:{tmp_path / 'b'}|{tmp_path / 'r'}")
    assert b.get(KEY_A) == {"v": 1}
    yield "remote read-through", b
    with open(b.store.local.path("results", KEY_A), "wb") as f:
        f.write(b"not an envelope")
    forget_memory(b)
    assert b.get(KEY_A) == {"v": 1}
    yield "corrupt envelope", b
    LocalStore(str(tmp_path / "b")).put("results", KEY_B, pickle.dumps(_System()))
    assert b.get(KEY_B) is None
    yield "os.system payload", b
    b.put_memos(KEY_C, {"m": 1})
    assert b.flush(5.0)
    assert b.get_memos_many([KEY_C, "12" * 32]) == {KEY_C: {"m": 1}}
    yield "memos hit+miss", b
    b.close()


def test_each_cache_event_is_counted_once(tmp_path):
    seen = []
    for step, cache in _session(tmp_path):
        policy = {k: v for k, v in dataclasses.asdict(cache.stats).items() if v}
        tiers = {
            tier: {k: v for k, v in tstats.counters().items() if v}
            for tier, tstats in cache.tier_metrics()
        }
        seen.append((step, policy, tiers))
        view = cache.counters()
        assert {k: v for k, v in view.items() if "." not in k} == (
            dataclasses.asdict(cache.stats)
        )
        for tier, counters in tiers.items():
            for name, n in counters.items():
                assert view[f"tier.{tier}.{name}"] == n
    assert seen == SESSION


def test_cache_stats_dataclass_new_fields_round_trip():
    stats = CacheStats(disk_hits=3, disk_evictions=2)
    d = dataclasses.asdict(stats)
    assert CacheStats(**d) == stats
    assert set(d) == {"memory_hits", "disk_hits", "misses", "stores",
                      "memory_evictions", "disk_evictions", "errors",
                      "memo_hits", "memo_misses", "memo_stores"}
