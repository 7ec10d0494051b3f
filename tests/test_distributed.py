"""Tracing a daemon request, and the daemon's live telemetry.

A request over a unix or TCP socket carries the client's trace id and
gets the daemon's span tree back under it; requests *without* the field
still validate; ``client compile --trace`` stitches both lanes onto one
timeline; batch workers re-parent their span trees under the driver's;
and the event log and sample ring stay bounded.
"""

import json
import os
import time

import pytest

from repro import obs
from repro.obs import distributed
from repro.obs.distributed import (
    new_trace_id,
    report_to_wire,
    stitch,
    validate_wire_spans,
    wire_to_events,
)
from repro.obs.events import EventLog, SampleRing, validate_event_log
from repro.obs.schema import validate_chrome_trace
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.service import CompileCache


# -- the trace field ------------------------------------------------------


def test_context_wire_round_trip_and_validation():
    # The wire form of a trace is its id: what the client mints validates,
    # anything else (the old context object included) does not.
    trace_id = new_trace_id()
    assert len(trace_id) == 32
    assert protocol.TRACE_ID("trace", trace_id) == []
    assert protocol.TRACE_ID("trace", trace_id.upper())
    assert protocol.TRACE_ID("trace", "xyz")
    assert protocol.TRACE_ID("trace", {"trace_id": trace_id})


def test_context_header_round_trip():
    # A minted id survives the request line the client writes: encoded,
    # decoded and validated on the daemon's side, it is the same id.
    trace_id = new_trace_id()
    assert trace_id != new_trace_id()
    line = protocol.encode(
        protocol.request("compile", {"workload": "conv2d", "trace": trace_id})
    )
    back = protocol.decode(line)
    assert protocol.validate_request(back) == []
    assert back["params"]["trace"] == trace_id


def test_context_header_rejects_garbage():
    # Whatever is not a bare 32-hex id is a bad request, the old
    # ``traceparent`` header form included; an absent or null trace is not.
    for bad in ("", "00-zz-1234-01", "totally wrong",
                f"00-{'a' * 32}-{'b' * 16}-01", "a" * 31, "a" * 33, 7):
        req = protocol.request("compile", {"workload": "x", "trace": bad})
        assert protocol.validate_request(req), bad
    for absent in ({}, {"trace": None}):
        req = protocol.request("compile", {"workload": "x", **absent})
        assert protocol.validate_request(req) == []


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
    wire = json.loads(json.dumps(report_to_wire(report, "daemon")))
    assert wire["schema"] == distributed.WIRE_SCHEMA
    assert wire["service"] == "daemon"
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
    trace_id = new_trace_id()
    obj = stitch([report_to_wire(report, "client")], trace_id)
    assert validate_chrome_trace(obj) == []
    xs = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert xs and all(e["args"]["trace_id"] == trace_id for e in xs)
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
    obj = stitch([mk(100.0, "a"), mk(101.0, "b")], "f" * 32)
    xs = sorted(
        (e for e in obj["traceEvents"] if e.get("ph") == "X"),
        key=lambda e: e["ts"],
    )
    assert xs[0]["ts"] == 0.0
    assert xs[1]["ts"] == pytest.approx(1e6)  # one second later, in us
    pids = {e["pid"] for e in xs}
    assert len(pids) == 2


# -- event log and sample ring ---------------------------------------------


def test_event_log_bounded_tail_and_rotation(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path, max_bytes=2000, cap=5)
    trace_id = new_trace_id()
    for i in range(20):
        log.emit("tick", trace_id=trace_id, i=i)
    stats = log.stats()
    assert stats["buffered"] == 5
    assert stats["dropped"] == 15
    assert stats["written"] == 20
    assert stats["rotations"] >= 1
    assert os.path.exists(path + ".1")
    with open(path) as f:
        assert validate_event_log(f) == []
    rec = log.recent(1)[0]
    assert rec["trace_id"] == trace_id
    log.close()


def test_event_log_tail_keeps_the_newest_records():
    # The tail is the newest ``cap`` records, so ``watch`` (and ``repro
    # top``) keeps showing what happens after the first ``cap`` events.
    log = EventLog(cap=5)
    for i in range(20):
        log.emit("tick", i=i)
    assert log.recent(1)[0]["i"] == 19
    assert [r["i"] for r in log.recent(3)] == [17, 18, 19]
    assert [r["i"] for r in log.recent()] == [15, 16, 17, 18, 19]
    assert log.stats()["dropped"] == 15


def test_event_log_holds_only_event_records():
    log = EventLog()
    log.emit("started")
    good = json.dumps(log.recent(1)[0])
    assert "trace_id" not in good  # an untraced record carries no id
    assert validate_event_log([good]) == []
    span_record = json.dumps(
        {"type": "trace", "at": 1.0, "wall_t0": 1.0, "spans": []}
    )
    assert validate_event_log([span_record]) == [
        "line 1: unknown record type 'trace'"
    ]


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


def _request_span(out):
    """The daemon's ``serve.request`` span from a traced reply."""
    assert validate_wire_spans(out["trace"]) == []
    events = wire_to_events(out["trace"])
    return events, next(e for e in events if e.name == "serve.request")


def test_unix_round_trip_carries_context(tmp_path):
    config = _config(tmp_path, events_path=str(tmp_path / "events.jsonl"))
    trace_id = new_trace_id()
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile("conv2d", size=16, trace=trace_id)
            events, root = _request_span(out)
            assert root.attrs["trace_id"] == trace_id
            # The compile pipeline hangs under the request span.
            opt = next(e for e in events if e.name == "optimize")
            assert opt.parent is not None
    # The daemon's event log carries the request lifecycle under the
    # same id, and no span payload.
    with open(config.events_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    assert {r["type"] for r in records} == {"event"}
    traced = {r["event"] for r in records if r.get("trace_id") == trace_id}
    assert {"request.received", "request.completed"} <= traced


def test_tcp_round_trip_carries_context(tmp_path):
    config = _config(
        tmp_path, socket_path=None, host="127.0.0.1", port=0
    )
    trace_id = new_trace_id()
    with ServerThread(config) as st:
        host, port = st.server.tcp_address
        with ServeClient(host=host, port=port) as client:
            out = client.compile("conv2d", size=16, trace=trace_id)
            assert _request_span(out)[1].attrs["trace_id"] == trace_id


def test_request_without_trace_field_still_validates(tmp_path):
    req = protocol.request("compile", {"workload": "conv2d"})
    assert "trace" not in req["params"]
    assert protocol.validate_request(req) == []
    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            out = client.compile("conv2d", size=16)
            assert "trace" not in out


def test_unsampled_request_returns_no_payload(tmp_path):
    # An untraced request gets no span payload and its event records no
    # trace id; the traced one next to it gets both.
    config = _config(tmp_path, events_path=str(tmp_path / "events.jsonl"))
    trace_id = new_trace_id()
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            assert "trace" not in client.compile("conv2d", size=16)
            traced = client.compile("conv2d", size=12, trace=trace_id)
            assert _request_span(traced)[1].attrs["trace_id"] == trace_id
    with open(config.events_path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    received = [r for r in records if r["event"] == "request.received"]
    assert [r.get("trace_id") for r in received] == [None, trace_id]


def test_protocol_rejects_bad_trace_field():
    for bad in ({"trace_id": new_trace_id()}, "nope"):
        req = protocol.request("compile", {"workload": "x", "trace": bad})
        assert protocol.validate_request(req)
    good = protocol.request("compile", {"workload": "x", "trace": new_trace_id()})
    assert protocol.validate_request(good) == []
    # Only ``compile`` is traced: ``autotune`` takes no trace param.
    tune = protocol.request("autotune", {"workload": "x", "trace": new_trace_id()})
    assert protocol.validate_request(tune) == ["autotune takes no param 'trace'"]


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
    try:
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
        # Re-parented under the driver's batch span.
        assert w.parent == batch.id
        assert w.parent in by_id


# -- the daemon's span payload ------------------------------------------


def test_validate_wire_spans_checks_what_stitching_reads():
    good = json.loads(json.dumps(report_to_wire(_traced_report(), "daemon")))
    assert validate_wire_spans(good) == []
    assert validate_wire_spans([]) != []
    assert validate_wire_spans(dict(good, wall_t0="now")) != []
    assert validate_wire_spans(dict(good, spans=None)) != []
    span = good["spans"][0]
    for key in ("id", "name", "start", "dur"):
        broken = {k: v for k, v in span.items() if k != key}
        assert validate_wire_spans(dict(good, spans=[broken])) != [], key
    for key, value in (("tid", None), ("attrs", []), ("parent", "x"), ("c", [[0]])):
        assert validate_wire_spans(dict(good, spans=[dict(span, **{key: value})])) != [], key


def test_client_trace_drops_a_malformed_daemon_payload(tmp_path, capsys):
    from types import SimpleNamespace

    from repro.__main__ import _client_compile_traced

    class FakeClient:
        def compile(self, workload, trace, **params):
            return {"workload": workload, "fingerprint": "f" * 64, "compile_ms": 1.0,
                    "from_cache": True, "trace": {"wall_t0": 1.0, "spans": [{"name": "x"}]}}

    out_path = str(tmp_path / "stitched.json")
    args = SimpleNamespace(workload="conv2d", trace_out=out_path)
    assert _client_compile_traced(FakeClient(), args, {}) == 0
    assert "daemon returned no span payload" in capsys.readouterr().err
    with open(out_path) as f:
        obj = json.load(f)
    assert validate_chrome_trace(obj) == [] and obj["otherData"]["services"] == ["client"]


def test_client_trace_says_a_deduped_request_gets_no_daemon_spans(tmp_path, capsys):
    from types import SimpleNamespace

    from repro.__main__ import _client_compile_traced

    class FakeClient:
        def compile(self, workload, trace, **params):
            # A follower of another client's in-flight compile: the leader
            # got the spans, this reply carries none.
            return {"workload": workload, "fingerprint": "f" * 64, "compile_ms": 1.0,
                    "from_cache": False, "deduped": True}

    out_path = str(tmp_path / "stitched.json")
    args = SimpleNamespace(workload="conv2d", trace_out=out_path)
    assert _client_compile_traced(FakeClient(), args, {}) == 0
    err = capsys.readouterr().err
    assert "joined another client's in-flight compile" in err
    assert "malformed" not in err
    with open(out_path) as f:
        assert json.load(f)["otherData"]["services"] == ["client"]


# -- CLI -------------------------------------------------------------------


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


def test_stitched_daemon_lane_lies_inside_the_client_request(tmp_path):
    # The one clock offset end to end: the daemon's spans, placed by its
    # own wall-clock anchor, fall inside the client's request window.
    from repro.__main__ import main

    config = _config(tmp_path)
    out_path = str(tmp_path / "stitched.json")
    with ServerThread(config):
        assert main([
            "client", "--socket", config.socket_path,
            "compile", "conv2d", "--size", "16", "--trace", out_path,
        ]) == 0
    with open(out_path) as f:
        obj = json.load(f)
    lanes = {e["args"]["name"]: e["pid"] for e in obj["traceEvents"]
             if e["name"] == "process_name"}
    xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    (request,) = [e for e in xs if e["name"] == "client.request"]
    daemon = [e for e in xs if e["pid"] == lanes["daemon"]]
    assert any(e["name"] == "serve.request" for e in daemon)
    slack_us = 1000.0
    for e in daemon:
        assert e["ts"] >= request["ts"] - slack_us, e["name"]
        assert e["ts"] + e["dur"] <= request["ts"] + request["dur"] + slack_us, e["name"]


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
