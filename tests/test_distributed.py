"""Tracing a daemon request, and the daemon's live telemetry.

A request over a unix or TCP socket carries the client's trace id and
gets the daemon's span tree back under it; requests *without* the field
still validate; ``client compile --trace`` stitches both lanes onto one
timeline; batch workers re-parent their span trees under the driver's;
the event log stays bounded and survives a full disk; and ``repro top``
renders two ``stats`` snapshots.
"""

import json
import os

import pytest

from repro import obs
from repro.obs import distributed
from repro.obs.distributed import (
    WireRows,
    new_trace_id,
    stitch,
    validate_wire_spans,
    wire_to_events,
)
from repro.obs.events import EventLog, validate_event_log
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


def _traced_report(report=None):
    with obs.collect(report, trace=True) as report:
        with obs.span("outer", phase="demo"):
            obs.count("presburger.memo.hit", 3)
            with obs.span("inner"):
                obs.count("presburger.memo.hit", 2)
                obs.count("other.counter")
    return report


def test_wire_rows_round_trip():
    # What the client does with its own lane: record rows live, send them.
    rows = _traced_report(WireRows("client"))
    wire = json.loads(json.dumps(rows.payload()))
    assert wire["schema"] == distributed.ROWS_SCHEMA
    assert wire["service"] == "client"
    assert validate_wire_spans(wire) == []
    events = wire_to_events(wire)
    by_name = {e.name: e for e in events}
    assert by_name["inner"].parent == by_name["outer"].id
    # Dictionary-encoded per-span counters decode back to full names.
    assert by_name["inner"].counters == {
        "presburger.memo.hit": 2, "other.counter": 1,
    }
    assert by_name["outer"].counters == {"presburger.memo.hit": 3}
    # Compact thread ids: small lane indices, not OS thread idents.
    assert all(tid < 8 for tid in wire["tid"])


def test_wire_rows_count_truncated_spans(monkeypatch):
    monkeypatch.setattr(distributed, "MAX_WIRE_SPANS", 5)
    with obs.collect(WireRows("daemon"), trace=True) as rows:
        for i in range(20):
            with obs.span(f"s{i}"):
                pass
    wire = rows.payload()
    assert len(wire["id"]) == 5
    assert wire["truncated"] == 15
    assert validate_wire_spans(wire) == []
    assert stitch([wire], new_trace_id())["otherData"]["dropped_events"] == 15


def _deep_report(report):
    """Spans five deep under one root, counting at every level."""
    with obs.collect(report, trace=True):
        with obs.span("root", workload="demo"):
            for _ in range(2):
                with obs.span("pass"):
                    obs.count("c.pass")
                    with obs.span("step", group="G1"):
                        with obs.span("leaf"):
                            obs.count("c.leaf", 2)
                            obs.annotate(noticed="if folding leaked it")
                            with obs.span("leaf"):
                                obs.count("c.leaf")
    return report


def test_wire_rows_fold_below_their_depth(monkeypatch):
    monkeypatch.setattr(distributed, "FOLD_DEPTH", 1)
    rows = _deep_report(distributed.WireRows("daemon"))
    wire = json.loads(json.dumps(rows.payload()))
    assert wire["schema"] == distributed.ROWS_SCHEMA
    assert validate_wire_spans(wire) == []
    events = wire_to_events(wire)
    assert [e.name for e in events] == ["root", "pass", "pass"]  # entry order
    root = events[0]
    assert root.attrs == {"workload": "demo"}
    for e in events[1:]:
        assert e.parent == root.id and e.attrs == {}
        assert e.counters["c.pass"] == 1 and e.counters["c.leaf"] == 3
        assert e.counters["fold.step.calls"] == 1 and e.counters["fold.leaf.calls"] == 2
        assert 0 <= e.counters["fold.leaf.us"] <= e.counters["fold.step.us"] <= e.duration * 1e6 + 1
    # the aggregates are a plain collector's: every span, every count
    plain = _deep_report(obs.CompileReport(record_events=True))
    assert rows.counters == plain.counters
    assert {k: v.calls for k, v in rows.spans.items()} == {
        k: v.calls for k, v in plain.spans.items()
    }
    # a full-detail collector on the same thread keeps every span for both
    both = distributed.WireRows("daemon")
    with obs.collect(trace=True) as detail:
        _deep_report(both)
    assert len(detail.events) == len(plain.events) == 9
    assert len(both.payload()["id"]) == 9


def test_wire_rows_stitch_like_span_objects():
    report = _traced_report()
    rows = distributed.WireRows("daemon")
    for e in report.events:
        rows.add_event(e)
    wire = json.loads(json.dumps(rows.payload()))
    assert validate_wire_spans(wire) == []
    by_name = {e.name: e for e in wire_to_events(wire)}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].counters == {"presburger.memo.hit": 2, "other.counter": 1}
    assert by_name["outer"].attrs == {"phase": "demo"}
    obj = stitch([wire], new_trace_id())
    assert validate_chrome_trace(obj) == []
    assert obj["otherData"]["spans"] == 2


def test_validate_wire_rows_checks_what_stitching_reads():
    rows = distributed.WireRows("daemon")
    for e in _traced_report().events:
        rows.add_event(e)
    good = json.loads(json.dumps(rows.payload()))
    assert validate_wire_spans(good) == []
    for key, value in (
        ("id", None), ("start_us", [0.5, 0]), ("parent", ["x", None]),
        ("name", [0, 99]), ("tid", [0]), ("names", [1, 2]),
        ("attrs", [[5, {}]]), ("c", [[0, 0]]), ("wall_t0", "now"),
    ):
        assert validate_wire_spans(dict(good, **{key: value})) != [], key
    for key in ("dur_us", "names"):
        assert validate_wire_spans({k: v for k, v in good.items() if k != key}) != [], key


def test_stitch_produces_valid_chrome_trace():
    rows = _traced_report(WireRows("client"))
    trace_id = new_trace_id()
    obj = stitch([rows.payload()], trace_id)
    assert validate_chrome_trace(obj) == []
    xs = [e for e in obj["traceEvents"] if e.get("ph") == "X"]
    assert xs and all(e["args"]["trace_id"] == trace_id for e in xs)
    # Counter attribution survives into the Perfetto args panel.
    inner = next(e for e in xs if e["name"] == "inner")
    assert inner["args"]["counter.presburger.memo.hit"] == 2
    assert obj["otherData"]["services"] == ["client"]


def test_stitch_rebases_streams_onto_shared_timeline():
    mk = lambda t0, name: {
        "schema": distributed.ROWS_SCHEMA,
        "service": name,
        "wall_t0": t0,
        "names": ["work"],
        "id": [1], "parent": [None], "name": [0],
        "start_us": [0], "dur_us": [500000], "tid": [0],
        "dropped": 0, "truncated": 0,
    }
    assert validate_wire_spans(mk(100.0, "a")) == []
    obj = stitch([mk(100.0, "a"), mk(101.0, "b")], "f" * 32)
    xs = sorted(
        (e for e in obj["traceEvents"] if e.get("ph") == "X"),
        key=lambda e: e["ts"],
    )
    assert xs[0]["ts"] == 0.0
    assert xs[1]["ts"] == pytest.approx(1e6)  # one second later, in us
    pids = {e["pid"] for e in xs}
    assert len(pids) == 2


# -- event log -------------------------------------------------------------


def test_event_log_bounded_tail_and_rotation(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path, max_bytes=2000)
    trace_id = new_trace_id()
    for i in range(20):
        log.emit("tick", trace_id=trace_id, i=i)
    stats = log.stats()
    assert stats["written"] == 20
    assert stats["rotations"] >= 1
    assert stats["write_errors"] == 0
    assert os.path.exists(path + ".1")
    log.close()
    with open(path) as f:
        lines = f.readlines()
    assert validate_event_log(lines) == []
    assert json.loads(lines[-1])["trace_id"] == trace_id


def test_event_log_tail_keeps_the_newest_records(tmp_path):
    # Rotation bounds the disk, not what is current: the newest records
    # are in ``path``, the ones just before them in ``path.1``, and only
    # the oldest are gone.
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path, max_bytes=1000)
    for i in range(40):
        log.emit("tick", i=i)
    log.close()

    def numbers(p):
        with open(p) as f:
            return [json.loads(line)["i"] for line in f]

    kept = numbers(path + ".1") + numbers(path)
    assert log.stats()["rotations"] >= 2
    assert 0 < len(kept) < 40
    assert kept == list(range(40 - len(kept), 40))


def test_event_log_holds_only_event_records(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path=path)
    log.emit("started")
    log.close()
    with open(path) as f:
        (good,) = f.read().splitlines()
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_event_log_counts_a_full_disk_and_never_raises():
    log = EventLog(path="/dev/full")
    log.emit("tick")
    log.emit("tock", level="warn")
    assert log.stats() == {"written": 0, "rotations": 0, "write_errors": 2}
    log.close()


# -- serve integration -----------------------------------------------------


def _config(tmp_path, **kw):
    kw.setdefault("socket_path", str(tmp_path / "serve.sock"))
    kw.setdefault("cache", CompileCache(cache_dir=str(tmp_path / "cache")))
    return ServeConfig(**kw)


def _request_span(out):
    """The daemon's ``serve.request`` span from a traced reply."""
    assert out["trace"]["schema"] == distributed.ROWS_SCHEMA
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_daemon_logging_to_a_full_disk_serves_and_reports(tmp_path):
    # Every lifecycle record fails to land; the daemon starts, compiles
    # and says so in ``stats`` instead of turning the work into an error.
    config = _config(tmp_path, events_path="/dev/full")
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            assert client.compile("conv2d", size=16)["fingerprint"]
            gauges = client.stats()["gauges"]
    assert gauges["serve.events.written"] == 0
    # server.started, request.received, request.completed
    assert gauges["serve.events.write_errors"] == 3


# -- the daemon's span payload ------------------------------------------


def _span_objects_payload():
    """The retired ``repro-spans/1`` form: a list of span objects."""
    return {
        "schema": "repro-spans/1", "service": "daemon", "wall_t0": 1.0,
        "spans": [{"id": 1, "parent": None, "name": "serve.request",
                   "start": 0.0, "dur": 0.5, "tid": 0, "attrs": {}}],
        "dropped": 0, "truncated": 0,
    }


def test_validate_wire_spans_checks_what_stitching_reads():
    good = json.loads(json.dumps(_traced_report(WireRows("daemon")).payload()))
    assert validate_wire_spans(good) == []
    assert validate_wire_spans([]) != []
    # Rows are the only span format: any other schema, or none, is an error.
    assert validate_wire_spans(_span_objects_payload()) != []
    assert validate_wire_spans({k: v for k, v in good.items() if k != "schema"}) != []
    assert validate_wire_spans(dict(good, schema="repro-spans/3")) != []


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


def test_client_trace_drops_a_span_objects_daemon_payload(tmp_path, capsys):
    from types import SimpleNamespace

    from repro.__main__ import _client_compile_traced

    class FakeClient:
        def compile(self, workload, trace, **params):
            return {"workload": workload, "fingerprint": "f" * 64, "compile_ms": 1.0,
                    "from_cache": True, "trace": _span_objects_payload()}

    out_path = str(tmp_path / "stitched.json")
    args = SimpleNamespace(workload="conv2d", trace_out=out_path)
    assert _client_compile_traced(FakeClient(), args, {}) == 0
    assert "daemon returned no span payload" in capsys.readouterr().err
    with open(out_path) as f:
        obj = json.load(f)
    assert validate_chrome_trace(obj) == []
    assert obj["otherData"]["services"] == ["client"]
    assert obj["otherData"]["spans"] == 1  # the client's own request span


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


def _snapshot(uptime, counters, gauges=(), compile_ms=()):
    registry = obs.MetricsRegistry()
    for name, n in counters.items():
        registry.inc(name, n)
    for name, value in dict(gauges, **{"serve.uptime_seconds": uptime}).items():
        registry.set_gauge(name, value)
    for ms in compile_ms:
        registry.observe("serve.compile_ms", ms, (1, 10, 100, 1000))
    return registry.snapshot()


def test_top_frame_from_two_snapshots():
    from repro.__main__ import _format_top_frame

    prev = _snapshot(
        10.0,
        {"serve.requests": 10, "serve.compiles": 2, "serve.cache_hits": 2},
        {"serve.cache.tier.local.gets": 4, "serve.cache.tier.local.hits": 1},
        compile_ms=[5, 50],
    )
    cur = _snapshot(
        12.0,
        {"serve.requests": 18, "serve.compiles": 3, "serve.cache_hits": 4,
         "serve.dedup_hits": 5},
        {"serve.cache.tier.local.gets": 8, "serve.cache.tier.local.hits": 2},
        compile_ms=[5, 50, 500, 500],
    )
    lines = _format_top_frame(prev, cur).splitlines()
    # 8 requests in 2 s; 5 of the 8 finished requests joined a flight.
    assert "req/s    4.00" in lines[1]
    assert "dedup  62.5%" in lines[1]
    # Quantiles of the cumulative histogram: 2 of 4 at or under 100 ms,
    # and p99 capped at the largest observation.
    assert "compile p50    100.0 ms" in lines[2]
    assert "p99    500.0 ms" in lines[2]
    assert "cache hits 4" in lines[2]
    assert "25.0% hit (8 gets)" in lines[3]
    # The diff table follows: one row per changed metric.
    assert lines[4].split() == ["metric", "a", "b", "delta", "ratio"]
    assert "serve.requests 10 18 +8 1.800x".split() in [row.split() for row in lines[5:]]


def test_cli_top_once_renders_dashboard(tmp_path, capsys):
    from repro.__main__ import main

    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            client.compile("conv2d", size=16)
        rc = main(["top", "--socket", config.socket_path, "--once",
                   "--interval", "0.05"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "req/s" in text
    assert "p50" in text and "p99" in text
    # Below the header, the metrics the second snapshot changed: top's
    # own first ``stats`` call among them.
    rows = {line.split()[0]: line.split()[1:] for line in text.splitlines()[5:]}
    assert rows["serve.requests.stats"][:3] == ["1", "2", "+1"]


def test_cli_client_stats_watch_prints_deltas(tmp_path, capsys):
    """The stats-delta poller is ``repro top``: over several frames, each
    frame diffs consecutive ``stats`` snapshots, so every frame shows the
    one ``stats`` call made since the previous snapshot."""
    from repro.__main__ import main

    config = _config(tmp_path)
    with ServerThread(config):
        with ServeClient(socket_path=config.socket_path) as client:
            client.compile("conv2d", size=16)
        rc = main(["top", "--socket", config.socket_path,
                   "--interval", "0.05", "--frames", "2"])
    assert rc == 0
    rows = [row for row in map(str.split, capsys.readouterr().out.splitlines())
            if row[:1] == ["serve.requests.stats"]]
    assert [row[1:4] for row in rows] == [["1", "2", "+1"], ["2", "3", "+1"]]
