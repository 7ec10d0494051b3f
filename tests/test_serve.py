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
    assert protocol.validate_request(
        protocol.request("partition", {"workload": "x", "targets": []})
    )
    assert protocol.validate_request(
        protocol.request("partition", {"workload": "x", "targets": ["tpu"]})
    )
    assert protocol.validate_request(
        protocol.request("partition", {"workload": "x", "targets": ["cpu"]})
    ) == []
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


def test_stats_is_valid_metrics_snapshot(tmp_path):
    from repro.obs import validate_metrics_snapshot

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
                      "candidates", "trace"]),
        ("partition", ["size", "startup", "targets", "trace"]),
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


def test_partition_over_the_wire(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config) as st:
        with ServeClient(socket_path=config.socket_path) as c:
            out = c.partition("camera_resnet", size=64)
            assert out["workload"] == "camera_resnet"
            assert set(out["assignment"]) == {
                "Squant", "Sconv1_init", "Sconv1", "Sbn1",
                "Sconv2_init", "Sconv2", "Sbn2",
            }
            assert out["partitions"] and out["modeled"]["mixed"]
            # degenerate single-target request round-trips too
            single = c.partition("conv2d", size=16, targets=["cpu"])
            assert single["degenerate"] is True
            assert single["targets_used"] == ["cpu"]
            with pytest.raises(ServeError) as e:
                c.partition("no-such-workload")
            assert e.value.code == "bad-request"
    assert st.server.registry.counters["serve.requests.partition"] == 3


def test_server_thread_surfaces_startup_failure(tmp_path):
    occupied = str(tmp_path / "dir-in-the-way")
    os.makedirs(os.path.join(occupied, "x"))  # unlink fails: non-empty dir
    config = _config(tmp_path, socket_path=occupied)
    with pytest.raises(RuntimeError, match="failed to start"):
        ServerThread(config).start()


# -- CLI -------------------------------------------------------------------


def test_cli_client_verbs(tmp_path, capsys):
    from repro.__main__ import main
    from repro.obs import validate_metrics_snapshot

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
        assert main(["client", "--socket", sock, "partition", "conv2d",
                     "--size", "16", "--targets", "cpu"]) == 0
        assert "assignment:" in capsys.readouterr().out
        assert main(["client", "--socket", sock, "shutdown"]) == 0
        assert "stopping: True" in capsys.readouterr().out


def test_cli_client_unreachable_server(tmp_path, capsys):
    from repro.__main__ import main

    missing = str(tmp_path / "nobody-home.sock")
    assert main(["client", "--socket", missing, "health"]) == 1
    assert "cannot reach compile server" in capsys.readouterr().err
