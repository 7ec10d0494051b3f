"""The compile server: protocol, single-flight dedup, limits, lifecycle.

Covers the acceptance criteria of the serve subsystem: the repro-serve/1
wire protocol validates on both ends, identical concurrent requests
collapse to one compile (8 concurrent -> 1 compile + 7 dedup hits), a
failing compile propagates a structured error to every waiter without
poisoning the cache or the flight table, per-request timeouts and
per-client limits answer structured errors, warm repeats answer from the
in-process cache in well under 50 ms, stats is a valid repro-metrics/1
snapshot, and shutdown drains in-flight work before exiting.

No pytest-asyncio here: unit tests drive loops via ``asyncio.run`` and
end-to-end tests run the daemon on a background thread
(:class:`repro.serve.ServerThread`) and speak to it with the blocking
client, exactly as real callers do.
"""

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, wait_for_server
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.singleflight import SingleFlight
from repro.service import CompileCache


# -- protocol --------------------------------------------------------------


def test_protocol_round_trip():
    req = protocol.request("compile", {"workload": "harris"}, id=7)
    assert protocol.validate_request(req) == []
    decoded = protocol.decode(protocol.encode(req))
    assert decoded == req
    ok = protocol.ok_response(7, {"x": 1})
    err = protocol.error_response(7, "timeout", "too slow")
    assert protocol.validate_response(ok) == []
    assert protocol.validate_response(err) == []


def test_protocol_rejects_malformed():
    assert protocol.validate_request({"proto": "bogus/9"})
    assert protocol.validate_request(
        protocol.request("compile", {"workload": ""})
    )
    assert protocol.validate_request(
        protocol.request("compile", {"workload": "x", "target": "tpu"})
    )
    assert protocol.validate_request(
        protocol.request("compile", {"workload": "x", "tile_sizes": [0]})
    )
    assert protocol.validate_request(
        protocol.request("autotune", {"workload": "x", "candidates": []})
    )
    # a name outside the method's row, for a method with a row and without
    assert protocol.validate_request(
        protocol.request("compile", {"workload": "x", "tile_size": [8, 8]})
    )
    assert protocol.validate_request(protocol.request("stats", {"bogus": 1}))
    assert protocol.validate_request(protocol.request("stats")) == []
    # bool ids and bool tile entries are not ints
    bad = protocol.request("compile", {"workload": "x"}, id=1)
    bad["id"] = True
    assert protocol.validate_request(bad)
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2]\n")
    bad_reply = {"proto": protocol.PROTOCOL, "id": 1, "ok": False,
                 "error": {"code": "nope", "message": 3}}
    assert len(protocol.validate_response(bad_reply)) == 2


# -- single-flight (unit) --------------------------------------------------


def test_single_flight_one_leader_many_followers():
    async def go():
        flight = SingleFlight()
        calls = 0
        release = asyncio.Event()

        async def work():
            nonlocal calls
            calls += 1
            await release.wait()
            return "value"

        async def request():
            task, leader = flight.task("k", work)
            return await asyncio.shield(task), leader

        requests = [asyncio.create_task(request()) for _ in range(5)]
        await asyncio.sleep(0)  # let every request reach flight.task
        assert len(flight) == 1
        release.set()
        results = await asyncio.gather(*requests)
        assert calls == 1
        assert sum(leader for _, leader in results) == 1
        assert all(value == "value" for value, _ in results)
        assert len(flight) == 0  # entry removed on completion

    asyncio.run(go())


def test_single_flight_failure_does_not_poison():
    async def go():
        flight = SingleFlight()

        async def boom():
            raise RuntimeError("no tiling")

        task, leader = flight.task("k", boom)
        assert leader
        with pytest.raises(RuntimeError):
            await asyncio.shield(task)
        assert "k" not in flight  # failed flight evicted immediately

        async def fine():
            return 42

        task2, leader2 = flight.task("k", fine)
        assert leader2  # fresh flight, not the failed one
        assert await asyncio.shield(task2) == 42

    asyncio.run(go())


def test_single_flight_follower_timeout_spares_leader():
    async def go():
        flight = SingleFlight()
        release = asyncio.Event()

        async def work():
            await release.wait()
            return "done"

        task, _ = flight.task("k", work)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.shield(task), 0.01)
        assert not task.cancelled()  # the shared work survived the timeout
        release.set()
        assert await asyncio.shield(task) == "done"

    asyncio.run(go())


# -- end-to-end over a unix socket -----------------------------------------


def _config(tmp_path, **kw):
    kw.setdefault("socket_path", str(tmp_path / "serve.sock"))
    kw.setdefault("cache", CompileCache(cache_dir=str(tmp_path / "cache")))
    return ServeConfig(**kw)


def test_compile_and_warm_repeat(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config) as st:
        with ServeClient(socket_path=config.socket_path) as client:
            cold = client.compile("conv2d", size=16)
            assert cold["from_cache"] is False
            assert cold["fingerprint"]
            assert cold["fusion"]
            warm_wall = []
            for _ in range(3):
                t0 = time.perf_counter()
                warm = client.compile("conv2d", size=16)
                warm_wall.append(time.perf_counter() - t0)
                assert warm["from_cache"] is True
                assert warm["fingerprint"] == cold["fingerprint"]
            # acceptance: warm repeat answers from the in-process cache
            assert min(warm_wall) < 0.050
            snap = client.stats()
            assert snap["counters"]["serve.compiles"] == 1
            assert snap["counters"]["serve.cache_hits"] == 3
            # three hits, one decode: the tier's own instance on the first
            assert snap["counters"]["service.cache.decode"] == 1
    assert not os.path.exists(config.socket_path)  # unlinked at drain
    assert st.server._connections == 0


class _ThreadLog(CompileCache):
    """A cache that records the thread of every memory-tier read, store
    read and store.  With ``lose_after_check`` its memory tier drops a key
    right after answering that it holds it, as when a worker's ``put``
    evicts the entry between the daemon's check and its read."""

    def __init__(self, *args, lose_after_check=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.lose_after_check = lose_after_check
        self.threads = []
        if self.store is not None:
            store_get = self.store.get

            def logged_store_get(kind, key):
                self._log("store.get")
                return store_get(kind, key)

            self.store.get = logged_store_get

    def _log(self, what):
        self.threads.append((what, threading.current_thread().name))

    def in_memory(self, key):
        held = super().in_memory(key)
        if held and self.lose_after_check:
            self._evict_memory(key)
        return held

    def get_memory(self, key):
        self._log("get_memory")
        return super().get_memory(key)

    def put(self, key, value):
        self._log("put")
        super().put(key, value)


def test_a_memory_hit_is_answered_on_the_event_loop(tmp_path):
    cache = _ThreadLog(cache_dir=str(tmp_path / "cache"))
    config = _config(tmp_path, cache=cache)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            assert c.compile("conv2d", size=16)["from_cache"] is False
            cold = list(cache.threads)
            del cache.threads[:]
            assert c.compile("conv2d", size=16)["from_cache"] is True
    # The miss read both tiers and stored on a worker; the hit read the
    # memory tier on the loop thread and nothing else.
    assert {what for what, _ in cold} == {"get_memory", "store.get", "put"}
    assert all(t.startswith("repro-serve-worker") for _, t in cold)
    assert cache.threads == [("get_memory", "repro-serve")]


def test_a_memory_hit_hashes_once_and_opens_no_flight(tmp_path, monkeypatch):
    """The key the loop checked is the request's fingerprint, and a hit
    answers before the single-flight: it is nobody's leader or follower."""
    from repro.service import driver, fingerprint

    hashes = []
    real = fingerprint.fingerprint_request

    def counting(*args, **kwargs):
        hashes.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(fingerprint, "fingerprint_request", counting)
    monkeypatch.setattr(driver, "fingerprint_request", counting)
    config = _config(tmp_path)
    with ServerThread(config) as st:
        flights = []
        open_flight = st.server._flight.task
        monkeypatch.setattr(
            st.server._flight, "task",
            lambda key, factory: flights.append(key) or open_flight(key, factory),
        )
        with ServeClient(socket_path=config.socket_path) as c:
            assert c.compile("conv2d", size=16)["from_cache"] is False
            assert len(flights) == 1
            del hashes[:], flights[:]
            hot = c.compile("conv2d", size=16)
            counters = c.stats()["counters"]
    assert hot["from_cache"] is True and hot["deduped"] is False
    assert hashes == ["repro-serve"]
    assert flights == []
    assert "serve.dedup_hits" not in counters
    assert counters["serve.cache_hits"] == 1 and counters["serve.compiles"] == 1


def test_a_hot_hit_redoes_no_work_that_never_changes(tmp_path, monkeypatch):
    """After the first hit of a key, every later hit hashes nothing (its
    key is a memo lookup), derives no fusion clusters (the cache's own
    instance keeps its summary) and builds no compile options on the
    loop.  Counts, not clocks: each of these came back on every hit."""
    from repro import CompileOptions
    from repro.core.tile_shapes import MixedSchedules
    from repro.ir import fingerprint as ir_fingerprint
    from repro.service import fingerprint

    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread().name))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ir_fingerprint, "digest_of")
    counting(fingerprint, "digest_of")
    counting(MixedSchedules, "fused_groups")
    counting(CompileOptions, "__post_init__")
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            cold = c.compile("conv2d", size=16)
            del calls[:]
            first = c.compile("conv2d", size=16)
            assert [name for name, _ in calls].count("fused_groups") == 1
            del calls[:]
            hot = [c.compile("conv2d", size=16) for _ in range(50)]
    assert sorted(set(calls)) == []
    assert first["from_cache"] is True and first["fusion"] == cold["fusion"]
    assert all(reply == dict(first, compile_ms=reply["compile_ms"]) for reply in hot)


#: A traced hit's daemon spans: ``(name, parent's name, attribute names,
#: counters)`` of the first and the second hit of one key.  A hit on the
#: loop is one memory-tier read and runs no batch, so each is one
#: ``serve.request`` row; only the first decodes the tier's instance.
TRACED_HIT_SPANS = [
    [("serve.request", None, ["trace_id", "workload"], {"service.cache.decode": 1})],
    [("serve.request", None, ["trace_id", "workload"], {})],
]


def test_a_traced_hit_on_the_loop_is_one_request_span(tmp_path):
    from repro.obs.distributed import new_trace_id, wire_to_events

    config = _config(tmp_path)
    trees = []
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            c.compile("conv2d", size=16)
            for _ in range(2):
                out = c.compile("conv2d", size=16, trace=new_trace_id())
                events = wire_to_events(out["trace"])
                names = {e.id: e.name for e in events}
                trees.append([
                    (e.name, names.get(e.parent), sorted(e.attrs), e.counters)
                    for e in events
                ])
    assert trees == TRACED_HIT_SPANS


def test_a_memory_hit_runs_no_batch(tmp_path, monkeypatch):
    """The loop answers a warm key from the memory tier alone: with the
    batch driver broken after the cold compile, the repeat still hits."""
    from repro.serve import server

    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            cold = c.compile("conv2d", size=16)

            def broken(*args, **kwargs):
                raise AssertionError("a memory hit ran compile_batch")

            monkeypatch.setattr(server, "compile_batch", broken)
            warm = c.compile("conv2d", size=16)
    assert cold["from_cache"] is False
    assert warm["from_cache"] is True and warm["error"] is None
    assert warm["fingerprint"] == cold["fingerprint"]
    assert warm["fusion"] == cold["fusion"]


@pytest.mark.parametrize("persistent", [True, False])
def test_a_key_lost_before_the_read_falls_back_to_the_pool(tmp_path, persistent):
    """The check says hot, the loop's read comes back empty: the request
    goes to the pool, which reads the disk tier (or compiles, with no
    disk tier) on a worker thread and answers as before."""
    cache = _ThreadLog(
        cache_dir=str(tmp_path / "cache"), persistent=persistent,
        lose_after_check=True,
    )
    config = _config(tmp_path, cache=cache)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            cold = c.compile("conv2d", size=16)
            del cache.threads[:]
            again = c.compile("conv2d", size=16)
            snap = c.stats()
    assert again["error"] is None and again["fingerprint"] == cold["fingerprint"]
    assert again["fusion"] == cold["fusion"]
    assert again["from_cache"] is persistent
    loop = [what for what, t in cache.threads if not t.startswith("repro-serve-worker")]
    assert loop == ["get_memory"]  # the lost read, and nothing else
    pool = {what for what, t in cache.threads if t.startswith("repro-serve-worker")}
    assert pool == ({"get_memory", "store.get"} if persistent else {"get_memory", "put"})
    # The empty read on the loop counted nothing: one miss, the cold one.
    assert cache.stats.misses == 1 + (not persistent)
    assert cache.stats.memory_hits == 0
    assert snap["counters"]["serve.cache_hits" if persistent else "serve.compiles"] >= 1


def test_hits_on_the_loop_race_worker_evictions_safely(tmp_path):
    """Six clients over four keys through a two-entry memory tier: workers
    evict what the loop has just checked, and every reply is still the
    key's own result."""
    import sys

    cache = CompileCache(cache_dir=str(tmp_path / "cache"), max_entries=2)
    config = _config(tmp_path, cache=cache, workers=2)
    sizes = (8, 12, 16, 20)
    expected, errors = {}, []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ServerThread(config):
            with ServeClient(socket_path=config.socket_path) as c:
                for size in sizes:
                    expected[size] = c.compile("conv2d", size=size)["fingerprint"]

            def client(offset):
                try:
                    with ServeClient(socket_path=config.socket_path, timeout=60) as c:
                        for i in range(12):
                            size = sizes[(offset + i) % len(sizes)]
                            out = c.compile("conv2d", size=size)
                            assert out["error"] is None and out["from_cache"] is True
                            assert out["fingerprint"] == expected[size]
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            with ServeClient(socket_path=config.socket_path) as c:
                counters = c.stats()["counters"]
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert counters["serve.compiles"] == len(sizes)
    assert counters.get("serve.internal_errors", 0) == 0
    assert cache.stats.memory_evictions > 0


def test_a_memory_hit_does_not_queue_behind_a_compile(tmp_path):
    """One worker, held by an autotune: a memory-hot compile still
    answers from the loop, a cold one waits for the worker."""
    release = threading.Event()
    calls, lock = [], threading.Lock()
    config = _config(tmp_path, workers=1)
    replies = {}

    def in_thread(name, method, **params):
        def run():
            with ServeClient(socket_path=config.socket_path) as c:
                replies[name] = c.call(method, params)

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    blocking = {"autotune": _blocking_fn(release, calls, lock)}
    with ServerThread(config, work_fns=blocking):
        try:
            with ServeClient(socket_path=config.socket_path, timeout=30) as c:
                assert c.compile("conv2d", size=16)["from_cache"] is False
                tune = in_thread("tune", "autotune", workload="conv2d", size=16)
                deadline = time.monotonic() + 10
                while not calls and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert calls, "the autotune never reached the worker"
                hot = c.compile("conv2d", size=16)
                assert hot["from_cache"] is True
                assert not release.is_set() and tune.is_alive()
                cold = in_thread("cold", "compile", workload="conv2d", size=24)
                cold.join(0.5)
                assert cold.is_alive() and "cold" not in replies
        finally:
            release.set()
        tune.join(30)
        cold.join(60)
    assert not tune.is_alive() and not cold.is_alive()
    assert replies["tune"]["error"] is None
    assert replies["cold"]["from_cache"] is False


def _blocking_fn(release, calls, lock, result=None, error=None):
    """A fake compile work fn: waits for ``release``, counts invocations."""

    def fn(norm, report):
        with lock:
            calls.append(dict(norm))
        assert release.wait(10), "test never released the compile"
        summary = {
            "workload": norm["workload"],
            "fingerprint": "f" * 8,
            "from_cache": False,
            "compile_ms": 1.0,
            "error": error,
        }
        if result:
            summary.update(result)
        return summary, None

    return fn


def test_eight_concurrent_identical_requests_compile_once(tmp_path):
    release = threading.Event()
    calls, lock = [], threading.Lock()
    config = _config(tmp_path)
    with ServerThread(config, work_fns={"compile": _blocking_fn(release, calls, lock)}):
        results, errors = [], []

        def one():
            try:
                with ServeClient(socket_path=config.socket_path) as c:
                    results.append(c.compile("conv2d", size=16))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one) for _ in range(8)]
        for t in threads:
            t.start()
        # Wait until the server has *accepted* all 8, then let the one
        # leader finish; stats runs on the loop so it answers while the
        # flight is still blocked on the worker thread.
        with ServeClient(socket_path=config.socket_path) as probe:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                snap = probe.stats()
                if snap["counters"].get("serve.requests.compile", 0) >= 8:
                    break
                time.sleep(0.01)
            release.set()
            for t in threads:
                t.join(10)
            assert not errors
            assert len(results) == 8
            # acceptance: exactly one compile, seven dedup hits
            assert len(calls) == 1
            snap = probe.stats()
            assert snap["counters"]["serve.compiles"] == 1
            assert snap["counters"]["serve.dedup_hits"] == 7
            fingerprints = {r["fingerprint"] for r in results}
            assert fingerprints == {"f" * 8}
            assert sum(r["deduped"] for r in results) == 7


def test_failed_compile_reaches_every_waiter_without_poisoning(tmp_path):
    state = {"fail": True}
    release = threading.Event()
    release.set()  # no blocking needed; concurrency comes from dedup

    def fn(norm, report):
        if state["fail"]:
            return {"workload": norm["workload"], "error": "infeasible tiling",
                    "from_cache": False}, None
        return {"workload": norm["workload"], "fingerprint": "ok",
                "from_cache": False, "error": None}, None

    config = _config(tmp_path)
    with ServerThread(config, work_fns={"compile": fn}):
        failures = []

        def one():
            with ServeClient(socket_path=config.socket_path) as c:
                try:
                    c.compile("conv2d", size=16)
                except ServeError as exc:
                    failures.append(exc)

        threads = [threading.Thread(target=one) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        # every waiter saw the structured error...
        assert len(failures) == 4
        assert {e.code for e in failures} == {"compile-error"}
        assert "infeasible" in failures[0].message
        # ...and the failure poisoned nothing: the same key compiles
        # fresh on the next request.
        state["fail"] = False
        with ServeClient(socket_path=config.socket_path) as c:
            out = c.compile("conv2d", size=16)
            assert out["fingerprint"] == "ok"
            snap = c.stats()
            assert snap["counters"]["serve.compile_errors"] >= 1
            assert snap["counters"]["serve.compiles"] == 1


def test_request_timeout_answers_structured_error(tmp_path):
    release = threading.Event()
    calls, lock = [], threading.Lock()
    config = _config(tmp_path, request_timeout=0.1)
    with ServerThread(config, work_fns={"compile": _blocking_fn(release, calls, lock)}):
        try:
            with ServeClient(socket_path=config.socket_path) as c:
                with pytest.raises(ServeError) as exc_info:
                    c.compile("conv2d", size=16)
                assert exc_info.value.code == "timeout"
                snap = c.stats()
                assert snap["counters"]["serve.timeouts"] == 1
        finally:
            release.set()  # let the orphaned flight finish before drain


def test_per_client_limit_answers_overloaded(tmp_path):
    release = threading.Event()
    calls, lock = [], threading.Lock()
    config = _config(tmp_path, client_limit=1)
    with ServerThread(config, work_fns={"compile": _blocking_fn(release, calls, lock)}):
        try:
            # Pipeline two *different* compiles on one raw connection; the
            # second must bounce off the per-client limit immediately.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10)
            sock.connect(config.socket_path)
            f = sock.makefile("rb")
            sock.sendall(protocol.encode(protocol.request(
                "compile", {"workload": "conv2d", "size": 16}, id=1)))
            sock.sendall(protocol.encode(protocol.request(
                "compile", {"workload": "conv2d", "size": 32}, id=2)))
            first = protocol.decode(f.readline())
            assert first["id"] == 2 and first["ok"] is False
            assert first["error"]["code"] == "overloaded"
            release.set()
            second = protocol.decode(f.readline())
            assert second["id"] == 1 and second["ok"] is True
            sock.close()
        finally:
            release.set()


def test_bad_requests_and_unknown_method(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            with pytest.raises(ServeError) as e:
                c.compile("no-such-workload")
            assert e.value.code == "bad-request"
            assert "no-such-workload" in e.value.message
            with pytest.raises(ServeError) as e:
                c.compile("conv2d", startup="no-such-heuristic")
            assert e.value.code == "bad-request"
            with pytest.raises(ServeError) as e:
                c.call("explode")
            assert e.value.code == "unknown-method"
            snap = c.stats()
            assert snap["counters"]["serve.bad_requests"] == 2
        # raw garbage on the wire gets a structured reply, id null
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(config.socket_path)
        sock.sendall(b"this is not json\n")
        reply = protocol.decode(sock.makefile("rb").readline())
        assert reply["ok"] is False and reply["id"] is None
        assert reply["error"]["code"] == "bad-request"
        sock.close()


def test_raw_requests_with_unknown_params_or_methods(tmp_path):
    """What the client library would refuse to send, sent on the socket: a
    misspelt param is an error rather than a default, and unknown methods
    (the retired ``partition`` among them) share one counter."""
    config = _config(tmp_path)
    with ServerThread(config) as st:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(config.socket_path)
        replies = sock.makefile("rb")

        def send(method, params):
            sock.sendall(protocol.encode(protocol.request(method, params, id=1)))
            reply = protocol.decode(replies.readline())
            assert reply["ok"] is False
            return reply["error"]

        error = send("compile", {"workload": "harris", "tile_size": [8, 8]})
        assert error["code"] == "bad-request"
        assert "tile_size" in error["message"]
        assert send("stats", {"bogus": 1})["code"] == "bad-request"
        assert send("partition", {"workload": "camera_resnet"})["code"] == "unknown-method"
        for n in range(5):
            assert send(f"bogus-{n}", {})["code"] == "unknown-method"
        sock.close()
    counters = st.server.registry.counters
    assert counters["serve.bad_requests"] == 2
    assert counters["serve.unknown_methods"] == 6
    assert [name for name in counters if name.startswith("serve.requests.")] == []


def test_retired_watch_is_an_unknown_method(tmp_path):
    """``repro top`` reads ``stats``; a client still sending the retired
    ``watch`` verb gets ``unknown-method`` under the same protocol tag."""
    config = _config(tmp_path)
    with ServerThread(config):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(config.socket_path)
        sock.sendall(protocol.encode(protocol.request("watch", {"since": 0}, id=1)))
        reply = protocol.decode(sock.makefile("rb").readline())
        sock.close()
    assert reply["proto"] == protocol.PROTOCOL
    assert reply["ok"] is False and reply["id"] == 1
    assert reply["error"]["code"] == "unknown-method"

def test_stats_is_valid_metrics_snapshot(tmp_path):
    from repro.obs.schema import validate_metrics_snapshot

    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            c.compile("conv2d", size=16)
            snap = c.stats()
            assert validate_metrics_snapshot(snap) == []
            assert snap["schema"] == "repro-metrics/1"
            assert snap["meta"]["service"] == "repro-serve"
            assert snap["meta"]["protocol"] == protocol.PROTOCOL
            # the compile's own pass spans were absorbed live
            assert snap["counters"].get("span.startup_fusion.calls", 0) >= 1
            assert "serve.request_ms" in snap["histograms"]
            assert snap["gauges"]["serve.uptime_seconds"] >= 0
            assert "serve.cache.stores" in snap["gauges"]
            # round-trips through JSON (the wire already proved this once)
            assert validate_metrics_snapshot(
                json.loads(json.dumps(snap))) == []


#: Every counter, with its value, and every histogram name of the final
#: ``stats`` snapshot of ``test_scripted_session_stats_are_pinned``'s
#: session.  Memo tables are cleared first, so the presburger counters are
#: those of a cold process whatever ran before.
SESSION_COUNTERS = {
    "autotune.exact_evals": 1,
    "autotune.requests": 1,
    "driver.cache_hits": 0,
    "driver.requests": 2,
    "driver.unique_requests": 2,
    "exposed.tensors": 4,
    "footprint.count.closed_form": 2,
    "footprint.relations": 2,
    "machine.analyze.computed": 1,
    "machine.analyze.reused": 1,
    "post_fusion.extensions_spliced": 2,
    "presburger.fm_box_fast_path": 78,
    "presburger.fm_eliminate": 256,
    "presburger.integer_sample": 13,
    "presburger.memo.access_map.hit": 1,
    "presburger.memo.access_map.miss": 5,
    "presburger.memo.apply_range.miss": 4,
    "presburger.memo.bounding_box.hit": 7,
    "presburger.memo.bounding_box.miss": 7,
    "presburger.memo.domain_box.hit": 10,
    "presburger.memo.domain_box.miss": 3,
    "presburger.memo.fm_eliminate.hit": 16,
    "presburger.memo.fm_eliminate.miss": 18,
    "presburger.memo.fm_eliminate_bounds.hit": 10,
    "presburger.memo.fm_eliminate_bounds.miss": 14,
    "presburger.memo.map_rename.hit": 1,
    "presburger.memo.map_rename.miss": 6,
    "presburger.memo.map_reverse.miss": 1,
    "presburger.memo.project_out.miss": 4,
    "presburger.memo.read_relations.hit": 3,
    "presburger.memo.read_relations.miss": 4,
    "presburger.memo.set_dedupe.hit": 1,
    "presburger.memo.set_dedupe.miss": 2,
    "presburger.memo.set_empty.hit": 12,
    "presburger.memo.set_empty.miss": 13,
    "presburger.memo.startup_schedule.hit": 1,
    "presburger.memo.startup_schedule.miss": 1,
    "presburger.memo.tile_footprint.hit": 1,
    "presburger.memo.tile_footprint.miss": 2,
    "presburger.memo.tile_shapes_chain.hit": 1,
    "presburger.memo.tile_shapes_chain.miss": 1,
    "presburger.memo.tile_to_instances.hit": 1,
    "presburger.memo.tile_to_instances.miss": 1,
    "presburger.memo.umap_box_projection.hit": 3,
    "presburger.memo.umap_box_projection.miss": 3,
    "presburger.memo.umap_fix.hit": 5,
    "presburger.memo.umap_fix.miss": 4,
    "presburger.memo.umap_specialize.miss": 2,
    "presburger.prune_interval": 4,
    "scheduler.startup_memo.hit": 1,
    "scheduler.startup_memo.miss": 1,
    "serve.bad_requests": 1,
    "serve.cache_hits": 1,
    "serve.compiles": 2,
    "serve.requests": 6,
    "serve.requests.autotune": 1,
    "serve.requests.compile": 3,
    "serve.requests.stats": 1,
    "serve.unknown_methods": 1,
    "service.cache.decode": 1,
    "span.algorithm1.calls": 2,
    "span.autotune.calls": 1,
    "span.codegen.promotion.calls": 1,
    "span.compile_batch.calls": 2,
    "span.footprint.calls": 3,
    "span.fuse_space.calls": 2,
    "span.optimize.calls": 2,
    "span.post_fusion.calls": 2,
    "span.resolve_shared_spaces.calls": 2,
    "span.scheduler.analyze.calls": 1,
    "span.scheduler.build_tree.calls": 2,
    "span.scheduler.calls": 2,
    "span.splice_extension.calls": 2,
    "span.startup_fusion.calls": 2,
    "span.tile_group.calls": 2,
    "span.tile_shapes.calls": 2,
    "span.tile_to_instances.calls": 1,
    "span.unfuse_dangling_readers.calls": 2,
    "tile_shapes.entries": 4,
    "tile_shapes.fused_spaces": 2,
}
SESSION_HISTOGRAMS = [
    "footprint.pieces",
    "presburger.fm.eliminated_dims",
    "serve.cache.tier.local.get_ms",
    "serve.cache.tier.local.put_ms",
    "serve.compile_ms",
    "serve.request_ms",
]


def test_scripted_session_stats_are_pinned(tmp_path):
    """A sequential session — a cold compile, its warm repeat, one
    autotune, one bad request, one unknown method — ends in exactly these
    counters and histograms: what the daemon counts does not drift when
    its bookkeeping is reworked."""
    from repro.presburger import memo

    memo.clear_all()
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            assert c.compile("conv2d", size=16)["from_cache"] is False
            assert c.compile("conv2d", size=16)["from_cache"] is True
            c.autotune("conv2d", size=16, candidates=[8, 16])
            with pytest.raises(ServeError) as e:
                c.compile("no-such-workload")
            assert e.value.code == "bad-request"
            with pytest.raises(ServeError) as e:
                c.call("explode")
            assert e.value.code == "unknown-method"
            snap = c.stats()
    assert dict(sorted(snap["counters"].items())) == SESSION_COUNTERS
    assert sorted(snap["histograms"]) == SESSION_HISTOGRAMS


def test_a_daemon_session_reads_and_writes_no_memo_snapshot(tmp_path):
    # The daemon's memo tables stay resident between requests, so neither
    # a compile miss nor an autotune sweep loads or spills a snapshot.
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as c:
            assert c.compile("conv2d", size=16)["from_cache"] is False
            assert c.compile("conv2d", size=24)["from_cache"] is False
            c.autotune("conv2d", size=16, candidates=[8, 16])
    cache = config.cache
    assert cache.stats.stores > 2
    assert (cache.stats.memo_hits, cache.stats.memo_misses, cache.stats.memo_stores) == (0, 0, 0)
    memos = tmp_path / "cache" / "memos"
    assert [f for _, _, files in os.walk(memos) for f in files] == []


def test_health_draining_and_graceful_drain(tmp_path):
    release = threading.Event()
    calls, lock = [], threading.Lock()
    config = _config(tmp_path)
    st = ServerThread(config, work_fns={"compile": _blocking_fn(release, calls, lock)})
    st.start()
    inflight_result = {}

    def slow_compile():
        with ServeClient(socket_path=config.socket_path) as c:
            inflight_result["out"] = c.compile("conv2d", size=16)

    worker = threading.Thread(target=slow_compile)
    worker.start()
    with ServeClient(socket_path=config.socket_path) as c:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not calls:
            time.sleep(0.01)
        assert c.health()["status"] == "ok"
        assert c.shutdown()["stopping"] is True
        # post-shutdown: health still answers (draining), new work bounces
        assert c.health()["status"] == "draining"
        with pytest.raises(ServeError) as e:
            c.compile("conv2d", size=99)
        assert e.value.code == "draining"
    release.set()  # let the in-flight compile finish...
    worker.join(10)
    st.stop()
    assert st._thread is not None and not st._thread.is_alive()
    # ...and the drain delivered its result rather than dropping it
    assert inflight_result["out"]["workload"] == "conv2d"
    assert not os.path.exists(config.socket_path)


def test_tcp_endpoint(tmp_path):
    config = ServeConfig(
        socket_path=None, host="127.0.0.1", port=0,
        cache=CompileCache(cache_dir=str(tmp_path / "cache")),
    )
    with ServerThread(config) as st:
        host, port = st.tcp_address
        wait_for_server(host=host, port=port, timeout=10)
        with ServeClient(host=host, port=port) as c:
            out = c.compile("conv2d", size=16)
            assert out["from_cache"] is False
            assert c.compile("conv2d", size=16)["from_cache"] is True


def test_autotune_over_the_wire(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config) as st:
        with ServeClient(socket_path=config.socket_path) as c:
            out = c.autotune("conv2d", size=16, candidates=[8, 16])
            assert tuple(out["best_tile_sizes"])
            assert out["evaluations"] >= 1
            assert out["best_time_ms"] > 0
            with pytest.raises(ServeError) as e:
                c.autotune("no-such-workload")
            assert e.value.code == "bad-request"
    assert st.server.registry.counters["serve.requests.autotune"] == 2


@pytest.mark.parametrize(
    "method,optional",
    [
        ("compile", ["size", "target", "startup", "tile_sizes", "trace"]),
        ("autotune", ["size", "target", "startup", "threads", "dims",
                      "candidates"]),
    ],
)
def test_null_param_means_default(tmp_path, method, optional):
    """An explicit JSON ``null`` and an absent param are the same request:
    both validate, both take the table's default, both land on one key."""
    assert sorted(optional + ["workload"]) == sorted(protocol.PARAMS[method])
    config = _config(tmp_path)
    with ServerThread(config) as st:
        with ServeClient(socket_path=config.socket_path) as c:
            absent = c.call(method, {"workload": "conv2d"})
            nulls = c.call(
                method, {"workload": "conv2d", **dict.fromkeys(optional)}
            )
    for reply in (absent, nulls):
        for volatile in ("compile_ms", "tuning_seconds", "from_cache", "deduped"):
            reply.pop(volatile, None)
    assert nulls == absent
    assert st.server.registry.counters.get("serve.bad_requests", 0) == 0
    assert st.server.registry.counters.get("serve.compile_errors", 0) == 0


def test_server_thread_surfaces_startup_failure(tmp_path):
    occupied = str(tmp_path / "dir-in-the-way")
    os.makedirs(os.path.join(occupied, "x"))  # unlink fails: non-empty dir
    config = _config(tmp_path, socket_path=occupied)
    with pytest.raises(RuntimeError, match="failed to start"):
        ServerThread(config).start()


# -- CLI -------------------------------------------------------------------


def test_cli_client_verbs(tmp_path, capsys):
    from repro.__main__ import main
    from repro.obs.schema import validate_metrics_snapshot

    config = _config(tmp_path)
    with ServerThread(config):
        sock = config.socket_path
        assert main(["client", "--socket", sock, "--wait", "10",
                     "compile", "conv2d", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "from cache:   no" in out
        assert main(["client", "--socket", sock,
                     "compile", "conv2d", "--size", "16"]) == 0
        assert "from cache:   yes" in capsys.readouterr().out
        assert main(["client", "--socket", sock, "stats", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert validate_metrics_snapshot(snap) == []
        assert snap["counters"]["serve.cache_hits"] == 1
        assert main(["client", "--socket", sock, "health"]) == 0
        assert "status:   ok" in capsys.readouterr().out
        assert main(["client", "--socket", sock, "tune", "conv2d",
                     "--size", "16", "--candidates", "8", "16"]) == 0
        assert "best tile sizes:" in capsys.readouterr().out
        assert main(["client", "--socket", sock, "shutdown"]) == 0
        assert "stopping: True" in capsys.readouterr().out


def test_cli_client_unreachable_server(tmp_path, capsys):
    from repro.__main__ import main

    missing = str(tmp_path / "nobody-home.sock")
    assert main(["client", "--socket", missing, "health"]) == 1
    assert "cannot reach compile server" in capsys.readouterr().err
