"""Distributed tracing and live telemetry across the compile fabric.

Covers the acceptance criteria of the observability tentpole: a trace
context round-trips through every serialized form (header, wire field,
worker environment), requests over unix and TCP sockets carry it and get
the daemon's span tree back under the same ``trace_id``, requests
*without* the field still validate (back-compat), batch workers re-parent
their span trees under the originating request, the HTTP store server
echoes and logs ``X-Repro-Trace``, the event log and sample ring stay
bounded, sampling decisions gate payload work, and the stitching /
critical-path analysis the ``repro trace`` / ``repro profile`` CLIs rely
on produce valid Chrome traces.
"""

import gzip
import json
import os
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.obs import distributed
from repro.obs.distributed import (
    HEADER,
    TraceContext,
    critical_path,
    derive_store_stream,
    new_context,
    report_to_wire,
    stitch,
    stitch_event_logs,
    stream_from_report,
    validate_trace_field,
    wire_to_events,
)
from repro.obs.events import EventLog, SampleRing, validate_event_log
from repro.obs.schema import validate_chrome_trace
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.service import CompileCache


# -- trace context ---------------------------------------------------------


def test_context_header_round_trip():
    ctx = new_context()
    assert len(ctx.trace_id) == 32 and len(ctx.span_id) == 16
    back = TraceContext.from_header(ctx.to_header())
    assert back == ctx
    off = TraceContext.from_header(ctx.to_header())
    assert off.sampled is True
    unsampled = new_context(sampled=False)
    assert TraceContext.from_header(unsampled.to_header()).sampled is False


def test_context_header_rejects_garbage():
    assert TraceContext.from_header(None) is None
    assert TraceContext.from_header("") is None
    assert TraceContext.from_header("00-zz-1234-01") is None
    assert TraceContext.from_header("totally wrong") is None


def test_context_wire_round_trip_and_validation():
    ctx = new_context(sampled=False)
    wire = ctx.to_wire()
    assert validate_trace_field(wire) == []
    assert TraceContext.from_wire(wire) == ctx
    assert TraceContext.from_wire(None) is None
    assert validate_trace_field({"trace_id": "xyz"})
    assert validate_trace_field("not a dict")


def test_context_env_round_trip():
    ctx = new_context()
    env = {distributed.ENV_VAR: ctx.to_header()}
    assert distributed.context_from_env(env) == ctx
    assert distributed.context_from_env({}) is None


def test_ambient_context_nests_and_tolerates_none():
    assert distributed.current_context() is None
    ctx = new_context()
    with distributed.use_context(None):
        assert distributed.current_context() is None
    with distributed.use_context(ctx):
        assert distributed.current_context() == ctx
        inner = new_context()
        with distributed.use_context(inner):
            assert distributed.current_context() == inner
        assert distributed.current_context() == ctx
    assert distributed.current_context() is None


# -- wire spans ------------------------------------------------------------


def _traced_report():
    with obs.collect(trace=True) as report:
        with obs.span("outer", phase="demo"):
            obs.count("presburger.memo.hit", 3)
            with obs.span("inner"):
                obs.count("presburger.memo.hit", 2)
                obs.count("other.counter")
    return report


def test_report_to_wire_round_trip():
    report = _traced_report()
    ctx = new_context()
    wire = json.loads(json.dumps(report_to_wire(report, "daemon", ctx)))
    assert wire["schema"] == distributed.WIRE_SCHEMA
    assert wire["service"] == "daemon"
    assert wire["trace_id"] == ctx.trace_id
    assert wire["parent_span_id"] == ctx.span_id
    events = wire_to_events(wire)
    by_name = {e.name: e for e in events}
    assert by_name["inner"].parent == by_name["outer"].id
    # Dictionary-encoded per-span counters decode back to full names.
    assert by_name["inner"].counters == {
        "presburger.memo.hit": 2, "other.counter": 1,
    }
    assert by_name["outer"].counters == {"presburger.memo.hit": 3}
    # Compact thread ids: small lane indices, not OS thread idents.
    assert all(s["tid"] < 8 for s in wire["spans"])


def test_report_to_wire_caps_spans():
    with obs.collect(trace=True) as report:
        for i in range(20):
            with obs.span(f"s{i}"):
                pass
    wire = report_to_wire(report, "daemon", limit=5)
    assert len(wire["spans"]) == 5
    assert wire["truncated"] == 15


def test_stitch_produces_valid_chrome_trace():
    report = _traced_report()
    ctx = new_context()
    stream = stream_from_report(report, "client", ctx)
    obj = stitch([stream], trace_id=ctx.trace_id)
    assert validate_chrome_trace(obj) == []
    xs = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert xs and all(e["args"]["trace_id"] == ctx.trace_id for e in xs)
    # Counter attribution survives into the Perfetto args panel.
    inner = next(e for e in xs if e["name"] == "inner")
    assert inner["args"]["counter.presburger.memo.hit"] == 2
    assert obj["otherData"]["services"] == ["client"]


def test_stitch_rebases_streams_onto_shared_timeline():
    mk = lambda t0, name: {
        "schema": distributed.WIRE_SCHEMA,
        "service": name,
        "wall_t0": t0,
        "spans": [{"id": 1, "parent": None, "name": "work",
                   "start": 0.0, "dur": 0.5, "tid": 0, "attrs": {}}],
        "dropped": 0, "truncated": 0,
    }
    obj = stitch([mk(100.0, "a"), mk(101.0, "b")], trace_id="f" * 32)
    xs = sorted(
        (e for e in obj["traceEvents"] if e.get("ph") == "X"),
        key=lambda e: e["ts"],
    )
    assert xs[0]["ts"] == 0.0
    assert xs[1]["ts"] == pytest.approx(1e6)  # one second later, in us
    pids = {e["pid"] for e in xs}
    assert len(pids) == 2


def test_derive_store_stream_centers_server_span():
    stream = {
        "schema": distributed.WIRE_SCHEMA,
        "service": "daemon",
        "wall_t0": 50.0,
        "spans": [
            {"id": 1, "parent": None, "name": "store.get", "start": 1.0,
             "dur": 0.010, "tid": 0, "attrs": {"server_ms": 4.0}},
            {"id": 2, "parent": None, "name": "optimize", "start": 0.0,
             "dur": 2.0, "tid": 0, "attrs": {}},
        ],
        "dropped": 0, "truncated": 0,
    }
    store = derive_store_stream(stream)
    assert store["service"] == "store"
    (span,) = store["spans"]
    assert span["name"] == "store.get.server"
    assert span["dur"] == pytest.approx(0.004)
    assert span["start"] == pytest.approx(1.003)  # centered in the client span
    assert "server_ms" not in span["attrs"]
    # No store spans -> no synthetic stream.
    assert derive_store_stream({"spans": [], "wall_t0": 0.0}) is None


# -- critical path ---------------------------------------------------------


def test_critical_path_longest_chain():
    nodes = {"a": 1.0, "b": 2.0, "c": 0.5}
    edges = [("a", "b", 0.1), ("a", "c", 5.0)]
    total, path = critical_path(nodes, edges)
    assert path == ["a", "c"]
    assert total == pytest.approx(1.0 + 5.0 + 0.5)


def test_critical_path_cycle_raises():
    with pytest.raises(ValueError):
        critical_path({"a": 1.0, "b": 1.0}, [("a", "b", 0.0), ("b", "a", 0.0)])


# -- event log and sample ring ---------------------------------------------


def test_event_log_bounded_tail_and_rotation(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path, max_bytes=2000, cap=5)
    ctx = new_context()
    for i in range(20):
        log.emit("tick", trace=ctx, i=i)
    stats = log.stats()
    assert stats["buffered"] == 5
    assert stats["dropped"] == 15
    assert stats["written"] == 20
    assert stats["rotations"] >= 1
    assert os.path.exists(path + ".1")
    with open(path) as f:
        assert validate_event_log(f) == []
    rec = log.recent(1)[0]
    assert rec["trace_id"] == ctx.trace_id
    log.close()


def test_event_log_recent_filters_trace_records():
    log = EventLog()
    log.emit("started")
    log.emit_trace({"schema": distributed.WIRE_SCHEMA, "spans": []})
    assert len(log.recent()) == 2
    only_events = log.recent(type="event")
    assert [r["event"] for r in only_events] == ["started"]


def test_event_log_rejects_unknown_level():
    with pytest.raises(ValueError):
        EventLog().emit("boom", level="fatal")


def test_sample_ring_since_and_missed():
    ring = SampleRing(capacity=3)
    for i in range(5):
        ring.add({"i": i})
    assert len(ring) == 3
    fresh, missed = ring.since(0)
    assert [s["i"] for s in fresh] == [2, 3, 4]
    assert missed == 0  # since=0 means "from the beginning", nothing missed
    fresh, missed = ring.since(1)
    assert [s["i"] for s in fresh] == [2, 3, 4]
    assert missed == 1  # sample 2 (seq 2) evicted... seq 2 retained; seq<=2 gone
    fresh, _ = ring.since(4)
    assert [s["seq"] for s in fresh] == [5]


# -- serve integration -----------------------------------------------------


def _config(tmp_path, **kw):
    kw.setdefault("socket_path", str(tmp_path / "serve.sock"))
    kw.setdefault("cache", CompileCache(cache_dir=str(tmp_path / "cache")))
    return ServeConfig(**kw)


def test_unix_round_trip_carries_context(tmp_path):
    config = _config(tmp_path, events_path=str(tmp_path / "events.jsonl"))
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            ctx = client.new_trace(sampled=True)
            out = client.compile("conv2d", size=16, trace=ctx)
            assert out["trace"]["trace_id"] == ctx.trace_id
            assert out["trace"]["parent_span_id"] == ctx.span_id
            events = wire_to_events(out["trace"])
            names = {e.name for e in events}
            assert "serve.request" in names
            root = next(e for e in events if e.name == "serve.request")
            assert root.attrs["trace_id"] == ctx.trace_id
            # The compile pipeline hangs under the request span.
            opt = next(e for e in events if e.name == "optimize")
            assert opt.parent is not None
    # The daemon's event log carries the request lifecycle and the trace
    # record repro trace --request stitches from.
    with open(config.events_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    kinds = {r.get("event") for r in records if r["type"] == "event"}
    assert "request.received" in kinds and "request.completed" in kinds
    traces = [r for r in records if r["type"] == "trace"]
    assert any(r.get("trace_id") == ctx.trace_id for r in traces)


def test_tcp_round_trip_carries_context(tmp_path):
    config = _config(
        tmp_path, socket_path=None, host="127.0.0.1", port=0
    )
    with ServerThread(config) as st:
        host, port = st.server.tcp_address
        with ServeClient(host=host, port=port) as client:
            ctx = client.new_trace(sampled=True)
            out = client.compile("conv2d", size=16, trace=ctx)
            assert out["trace"]["trace_id"] == ctx.trace_id


def test_request_without_trace_field_still_validates(tmp_path):
    req = protocol.request("compile", {"workload": "conv2d"})
    assert "trace" not in req["params"]
    assert protocol.validate_request(req) == []
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile("conv2d", size=16)
            assert "trace" not in out


def test_protocol_rejects_bad_trace_field():
    bad = protocol.request(
        "compile", {"workload": "x", "trace": {"trace_id": "nope"}}
    )
    assert protocol.validate_request(bad)
    good = protocol.request(
        "compile", {"workload": "x", "trace": new_context().to_wire()}
    )
    assert protocol.validate_request(good) == []


def test_unsampled_request_returns_no_payload(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile(
                "conv2d", size=16, trace=client.new_trace(sampled=False)
            )
            assert "trace" not in out
            snap = client.stats()
            assert snap["counters"].get("serve.trace_sampled", 0) == 0


def test_trace_sample_zero_suppresses_daemon_tracing(tmp_path):
    config = _config(tmp_path, trace_sample=0.0)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile(
                "conv2d", size=16, trace=client.new_trace(sampled=True)
            )
            assert "trace" not in out
            snap = client.stats()
            assert snap["counters"]["serve.trace_sampled_out"] == 1


def test_watch_returns_ring_samples(tmp_path):
    config = _config(tmp_path, sample_interval=0.05)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            client.compile("conv2d", size=16)
            deadline = time.monotonic() + 5
            samples = []
            while time.monotonic() < deadline and not samples:
                reply = client.watch(since=0)
                samples = reply["samples"]
                time.sleep(0.02)
            assert samples, "no telemetry samples within 5s"
            s = samples[-1]
            for key in ("req_per_s", "dedup_rate", "compile_p50_ms",
                        "compile_p99_ms", "active_flights", "seq"):
                assert key in s
            # Incremental poll: nothing new until the next tick.
            reply = client.watch(since=s["seq"])
            assert all(x["seq"] > s["seq"] for x in reply["samples"])
            # Lifecycle events ride along, wire-span records do not.
            assert all(
                r.get("type") == "event" for r in reply["recent_events"]
            )


# -- batch workers re-parent under the request span ------------------------


def test_process_worker_spans_reparent_under_request(tmp_path):
    from repro.api import CompileOptions, CompileRequest, compile_batch
    from repro.pipelines import conv2d

    prog = conv2d.build({"H": 24, "W": 24, "KH": 3, "KW": 3})
    reqs = [CompileRequest(prog, tile_sizes=(t, t)) for t in (4, 8)]
    ctx = new_context()
    try:
        with distributed.use_context(ctx):
            with obs.collect(trace=True) as report:
                outs = compile_batch(
                    reqs, options=CompileOptions(mode="process", jobs=2)
                )
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"no process pool in this sandbox: {exc}")
    assert all(o.ok for o in outs)
    assert report.counters.get("driver.worker_reports_merged") == 2
    by_id = {e.id: e for e in report.events}
    batch = next(e for e in report.events if e.name == "compile_batch")
    workers = [e for e in report.events if e.name == "compile_worker"]
    assert len(workers) == 2
    for w in workers:
        # Re-parented under the driver's batch span, stamped with the
        # originating request's trace ids.
        assert w.parent == batch.id
        assert w.attrs["trace_id"] == ctx.trace_id
        assert w.attrs["parent_span_id"] == ctx.span_id
        assert w.parent in by_id


# -- store server trace propagation ----------------------------------------


def test_store_server_echoes_and_logs_trace_header(tmp_path):
    from repro.service.stores import HTTPStore, StoreServer

    events_path = str(tmp_path / "store-events.jsonl")
    with StoreServer(str(tmp_path / "remote"), events_path=events_path) as srv:
        ctx = new_context()
        store = HTTPStore(srv.url)
        with distributed.use_context(ctx):
            store.put("results", "deadbeef" * 8, b"payload")
            assert store.get("results", "deadbeef" * 8) == b"payload"
        # The header is echoed back on the raw response.
        req = urllib.request.Request(
            f"{srv.url}/cache/results/{'deadbeef' * 8}",
            headers={HEADER: ctx.to_header()},
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.headers[HEADER] == ctx.to_header()
            assert float(resp.headers[distributed.SERVER_MS_HEADER]) >= 0.0
    with open(events_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    assert any(r.get("trace_id") == ctx.trace_id for r in records)
    trace_recs = [r for r in records if r["type"] == "trace"]
    assert any(r.get("trace_id") == ctx.trace_id for r in trace_recs)


def test_http_store_spans_carry_server_ms(tmp_path):
    from repro.service.stores import HTTPStore, StoreServer

    with StoreServer(str(tmp_path / "remote")) as srv:
        store = HTTPStore(srv.url)
        ctx = new_context()
        with distributed.use_context(ctx):
            with obs.collect(trace=True) as report:
                store.put("results", "cafebabe" * 8, b"v")
                store.get("results", "cafebabe" * 8)
    spans = [e for e in report.events if e.name.startswith("store.")]
    assert spans
    assert any("server_ms" in e.attrs for e in spans)
    # Those annotations are exactly what derive_store_stream consumes.
    stream = stream_from_report(report, "daemon", ctx)
    assert derive_store_stream(stream) is not None


# -- end-to-end stitching (daemon + store lanes from disk) -----------------


def test_stitch_event_logs_reassembles_request(tmp_path):
    daemon_log = str(tmp_path / "daemon.jsonl")
    store_log = str(tmp_path / "store.jsonl")
    ctx = new_context()
    report = _traced_report()
    EventLog(path=daemon_log).emit_trace(
        report_to_wire(report, "daemon", ctx)
    )
    store_report = _traced_report()
    EventLog(path=store_log).emit_trace(
        report_to_wire(store_report, "store", ctx)
    )
    # A foreign trace in the same log must not leak in.
    EventLog(path=daemon_log).emit_trace(
        report_to_wire(_traced_report(), "daemon", new_context())
    )
    obj, streams = stitch_event_logs([daemon_log, store_log], ctx.trace_id)
    assert streams == 2
    assert validate_chrome_trace(obj) == []
    assert obj["otherData"]["trace_id"] == ctx.trace_id
    xs = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert all(e["args"]["trace_id"] == ctx.trace_id for e in xs)
    services = set(obj["otherData"]["services"])
    assert services == {"daemon", "store"}


# -- CLI -------------------------------------------------------------------


def test_cli_trace_request_stitches_from_logs(tmp_path, capsys):
    from repro.__main__ import main

    log_path = str(tmp_path / "daemon.jsonl")
    ctx = new_context()
    EventLog(path=log_path).emit_trace(
        report_to_wire(_traced_report(), "daemon", ctx)
    )
    out_path = str(tmp_path / "stitched.json")
    rc = main([
        "trace", "--request", ctx.trace_id,
        "--log", log_path, "-o", out_path,
    ])
    assert rc == 0
    with open(out_path) as f:
        obj = json.load(f)
    assert validate_chrome_trace(obj) == []
    # Unknown trace id: error, nothing stitched.
    rc = main([
        "trace", "--request", "0" * 32, "--log", log_path,
        "-o", str(tmp_path / "nope.json"),
    ])
    assert rc == 1


def test_cli_client_compile_trace_writes_stitched_file(tmp_path, capsys):
    from repro.__main__ import main

    config = _config(tmp_path)
    out_path = str(tmp_path / "stitched.json")
    with ServerThread(config):
        rc = main([
            "client", "--socket", config.socket_path,
            "compile", "conv2d", "--size", "16", "--trace", out_path,
        ])
    assert rc == 0
    with open(out_path) as f:
        obj = json.load(f)
    assert validate_chrome_trace(obj) == []
    services = set(obj["otherData"]["services"])
    assert {"client", "daemon"} <= services
    trace_id = obj["otherData"]["trace_id"]
    xs = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert xs and all(e["args"]["trace_id"] == trace_id for e in xs)


def test_cli_top_once_renders_dashboard(tmp_path, capsys):
    from repro.__main__ import main

    config = _config(tmp_path, sample_interval=0.05)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            client.compile("conv2d", size=16)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if client.watch(since=0)["samples"]:
                    break
                time.sleep(0.02)
        rc = main(["top", "--socket", config.socket_path, "--once"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "req/s" in text
    assert "p50" in text and "p99" in text


def test_cli_client_stats_watch_prints_deltas(tmp_path, capsys):
    from repro.__main__ import main

    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            client.compile("conv2d", size=16)
        rc = main([
            "client", "--socket", config.socket_path,
            "stats", "--watch", "--interval", "0.05", "--count", "2",
        ])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_cli_profile_critical_path(capsys):
    from repro.__main__ import main

    rc = main([
        "profile", "conv2d", "--size", "8", "--critical-path",
        "--targets", "cpu,gpu",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "critical path" in text.lower()
    assert "measured" in text and "modeled" in text
