"""The compile cache's store: layout, GC, degradation, sharing.

Covers the store end to end:

* ``LocalStore`` — byte-compatible sharded layout, content-addressed put
  skip, O(1) running counters, TTL + mtime-LRU garbage collection, and
  the GC budget read from the environment in the flags' spelling;
* ``CompileCache`` over the store — put skips read from the store's own
  counters, memo snapshots read back through a second cache, and
  spec resolution (names, directories, mappings; URLs refused);
* one counter per event — a scripted session pins every policy and store
  counter per step;
* degraded disk — a read-only or full cache directory falls back to
  memory-only with ``tier.local.errors`` counted, never an exception;
* cross-process sharing — subprocesses hammering one store directory
  concurrently leave a consistent tree with zero corrupt-entry
  evictions, and a second compile daemon on the first one's directory
  answers without compiling anything.
"""

import dataclasses
import errno
import os
import pickle
import struct
import subprocess
import sys
import tempfile
import time

import pytest

from repro.options import CompileOptions
from repro.service.cache import CacheStats, CompileCache, resolve_cache
from repro.service.store import LocalStore, default_gc_budget, parse_age, parse_size

KEY_A = "ab" * 32
KEY_B = "cd" * 32
KEY_C = "ef" * 32


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


def _prefixed(magic=b"repro-cache", schema=None, key=KEY_A):
    from repro.ir.fingerprint import SCHEMA_VERSION

    schema = SCHEMA_VERSION if schema is None else schema
    return struct.pack(">11sH64s", magic, schema, key.encode())


BAD_PREFIXES = {
    "wrong magic": _prefixed(magic=b"other-cache"),
    "wrong schema": _prefixed(schema=7),
    "wrong key": _prefixed(key=KEY_B),
    "truncated prefix": _prefixed()[:40],
}


@pytest.mark.parametrize("kind", ["results", "memos"])
@pytest.mark.parametrize("case", sorted(BAD_PREFIXES))
def test_a_bad_prefix_is_an_error_an_eviction_and_a_miss(tmp_path, case, kind):
    store = LocalStore(str(tmp_path))
    assert store.put(kind, KEY_A, b"payload")
    path = store.path(kind, KEY_A)
    with open(path, "rb") as f:
        assert f.read() == _prefixed() + b"payload"  # the layout, byte for byte
    with open(path, "wb") as f:
        f.write(BAD_PREFIXES[case] + (b"payload" if case != "truncated prefix" else b""))
    assert store.get(kind, KEY_A) is None
    assert not os.path.exists(path)
    assert store.stats.get("errors") == 1 and store.stats.get("evictions") == 1
    assert store.stats.get("misses") == 1 and store.stats.get("hits") == 0


def test_a_head_read_stops_after_the_head(tmp_path):
    store = LocalStore(str(tmp_path))
    head = struct.pack(">I", 5) + b"[1,2]"
    assert store.put("results", KEY_A, head + b"\xff" * 100_000)
    assert store.get_head("results", KEY_A) == head
    assert store.get_head("results", KEY_B) is None
    assert store.stats.get("head_gets") == 2 and store.stats.get("gets") == 0
    # a payload shorter than its head says comes back short, not padded
    assert store.put("results", KEY_C, struct.pack(">I", 50) + b"[1")
    assert store.get_head("results", KEY_C) == struct.pack(">I", 50) + b"[1"
    with open(store.path("results", KEY_A), "r+b") as f:
        f.write(b"x")  # a bad prefix: an error and an eviction, as for get
    assert store.get_head("results", KEY_A) is None
    assert store.stats.get("errors") == 1 and store.stats.get("evictions") == 1


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


def test_gc_budget_env_vars_take_the_flags_spelling(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "500M")
    monkeypatch.setenv("REPRO_CACHE_MAX_AGE", "7d")
    assert default_gc_budget() == (parse_size("500M"), parse_age("7d"))
    assert default_gc_budget() == (524288000, 7 * 86400.0)
    assert CompileCache(cache_dir="unused", persistent=False).gc_max_bytes == 524288000
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    monkeypatch.setenv("REPRO_CACHE_MAX_AGE", "")
    assert default_gc_budget() == (4096, None)
    monkeypatch.setenv("REPRO_CACHE_MAX_AGE", "a week")
    with pytest.raises(ValueError, match="REPRO_CACHE_MAX_AGE"):
        default_gc_budget()


# -- CompileCache over the store -------------------------------------------


def test_memos_round_trip_through_a_second_cache(tmp_path):
    a = CompileCache(cache_dir=str(tmp_path / "a"))
    a.put_memos(KEY_A, {"table": [1, 2]})
    a.put_memos(KEY_B, {"table": [3]})

    b = CompileCache(cache_dir=str(tmp_path / "a"))
    got = {key: b.get_memos(key) for key in (KEY_A, KEY_B, KEY_C)}
    assert got == {KEY_A: {"table": [1, 2]}, KEY_B: {"table": [3]}, KEY_C: None}
    assert b.stats.memo_hits == 2
    assert b.stats.memo_misses == 1


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
    built = CompileCache(cache_dir=str(tmp_path / "m"), max_entries=4)
    assert resolve_cache(built) is built
    assert built.max_entries == 4
    assert resolve_cache(str(tmp_path / "d")).cache_dir == str(tmp_path / "d")

    # A URL or a tiered spelling names no directory: refused, and no
    # directory called ``http:`` appears in the working directory.
    for spec in ("http://127.0.0.1:9", "tiered:a|http://127.0.0.1:9"):
        with pytest.raises(ValueError):
            resolve_cache(spec)
    assert not os.path.exists("http:")

    options = CompileOptions(cache=str(tmp_path / "o"))
    assert isinstance(options.cache, CompileCache)
    assert options.cache.cache_dir == str(tmp_path / "o")


def test_compile_results_bit_identical_across_tiers(tmp_path):
    """The same fingerprint served fresh, from memory or from a second
    cache on the same directory must print the same tree
    (SCHEMA_VERSION-gated compatibility)."""
    from repro.codegen import print_tree
    from repro.service import cached_optimize
    from repro.workloads import build_workload

    def tree_of(cache):
        prog = build_workload("atax", 32)
        return print_tree(cached_optimize(prog, options=CompileOptions(cache=cache)).tree, prog)

    a = CompileCache(cache_dir=str(tmp_path / "shared"))
    baseline = tree_of(a)
    assert a.stats.misses == 1
    assert tree_of(a) == baseline
    assert a.stats.memory_hits == 1
    b = CompileCache(cache_dir=str(tmp_path / "shared"))
    assert tree_of(b) == baseline
    assert b.counters()["tier.local.hits"] >= 1  # served by the directory
    assert b.stats.misses == 0


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
from repro.service.store import LocalStore

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


# -- two daemons, one directory --------------------------------------------


def test_second_daemon_answers_from_a_shared_directory(tmp_path):
    from repro.codegen import print_tree
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    from repro.workloads import build_workload

    shared = str(tmp_path / "shared")
    config_a = ServeConfig(socket_path=str(tmp_path / "a.sock"), cache=shared)
    with ServerThread(config_a) as st_a:
        with ServeClient(socket_path=config_a.socket_path) as client:
            cold = client.compile("conv2d", size=64)
            assert cold["from_cache"] is False

    config_b = ServeConfig(socket_path=str(tmp_path / "b.sock"), cache=shared)
    with ServerThread(config_b) as st_b:
        with ServeClient(socket_path=config_b.socket_path) as client:
            warm = client.compile("conv2d", size=64)
            assert warm["from_cache"] is True
            assert warm["fingerprint"] == cold["fingerprint"]
            snap = client.stats()
        # daemon B compiled nothing: the shared directory answered
        assert snap["counters"].get("serve.compiles", 0) == 0
        assert snap["gauges"]["serve.cache.tier.local.hits"] >= 1
        assert "serve.cache.tier.local.get_ms" in snap["histograms"]

    prog = build_workload("conv2d", 64)
    tree_a = st_a.server.cache.get(cold["fingerprint"]).tree
    tree_b = st_b.server.cache.get(warm["fingerprint"]).tree
    assert print_tree(tree_b, prog) == print_tree(tree_a, prog)


# -- one counter per event: a scripted session -----------------------------

SESSION_LOCAL = [
    ("put", {"stores": 1}, {"local": {"puts": 1}}),
    ("put again", {"stores": 2}, {"local": {"put_skips": 1, "puts": 2}}),
    ("memory get", {"memory_hits": 1, "stores": 2},
     {"local": {"put_skips": 1, "puts": 2}}),
    ("store get", {"disk_hits": 1, "memory_hits": 1, "stores": 2},
     {"local": {"gets": 1, "hits": 1, "put_skips": 1, "puts": 2}}),
    ("second cache, same directory", {"disk_hits": 1},
     {"local": {"gets": 1, "hits": 1}}),
    ("corrupt envelope", {"disk_hits": 1, "misses": 1},
     {"local": {"errors": 1, "evictions": 1, "gets": 2, "hits": 1,
                "misses": 1}}),
    ("os.system payload",
     {"disk_evictions": 1, "disk_hits": 1, "errors": 1, "misses": 2},
     {"local": {"deletes": 1, "errors": 1, "evictions": 1, "gets": 3,
                "hits": 2, "misses": 1}}),
    ("memos hit+miss",
     {"disk_evictions": 1, "disk_hits": 1, "errors": 1, "memo_hits": 1,
      "memo_misses": 1, "memo_stores": 1, "misses": 2},
     {"local": {"deletes": 1, "errors": 1, "evictions": 1, "gets": 5,
                "hits": 3, "misses": 2, "puts": 1}}),
]


class _System:
    """Pickles to a payload that names ``os.system``."""

    def __reduce__(self):
        return (os.system, ("true",))


def _session_local(tmp_path):
    """Drive a local cache ``a``, then a second cache ``b`` on ``a``'s
    directory, through every store event once; yields ``(step, cache)``
    after each step."""

    def forget_memory(cache):
        cache._mem.clear()
        cache._mem_bytes = 0

    directory = str(tmp_path / "a")
    a = CompileCache(cache_dir=directory)
    a.put(KEY_A, {"v": 1})
    yield "put", a
    a.put(KEY_A, {"v": 1})
    yield "put again", a
    assert a.get(KEY_A) == {"v": 1}
    yield "memory get", a
    forget_memory(a)
    assert a.get(KEY_A) == {"v": 1}
    yield "store get", a
    a.close()

    b = CompileCache(cache_dir=directory)
    assert b.get(KEY_A) == {"v": 1}
    yield "second cache, same directory", b
    with open(LocalStore(directory).path("results", KEY_A), "wb") as f:
        f.write(b"not an envelope")
    forget_memory(b)
    assert b.get(KEY_A) is None
    yield "corrupt envelope", b
    LocalStore(directory).put("results", KEY_B, pickle.dumps(_System()))
    assert b.get(KEY_B) is None
    yield "os.system payload", b
    b.put_memos(KEY_C, {"m": 1})
    assert b.get_memos(KEY_C) == {"m": 1} and b.get_memos("12" * 32) is None
    yield "memos hit+miss", b
    b.close()


def test_each_cache_event_is_counted_once(tmp_path):
    seen = []
    for step, cache in _session_local(tmp_path):
        policy = {k: v for k, v in dataclasses.asdict(cache.stats).items() if v}
        tiers = {
            "local": {k: v for k, v in cache.store.stats.counters().items() if v}
        }
        seen.append((step, policy, tiers))
        view = cache.counters()
        assert {k: v for k, v in view.items() if "." not in k} == (
            dataclasses.asdict(cache.stats)
        )
        for tier, counters in tiers.items():
            for name, n in counters.items():
                assert view[f"tier.{tier}.{name}"] == n
    assert seen == SESSION_LOCAL


def test_cache_stats_dataclass_new_fields_round_trip():
    stats = CacheStats(disk_hits=3, disk_evictions=2)
    d = dataclasses.asdict(stats)
    assert CacheStats(**d) == stats
    assert set(d) == {"memory_hits", "disk_hits", "misses", "stores",
                      "memory_evictions", "disk_evictions", "errors",
                      "memo_hits", "memo_misses", "memo_stores"}
