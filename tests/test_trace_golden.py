"""The Chrome trace files are the parent's, byte for byte.

``chrome_trace`` (one local report) and ``stitch`` (the client and
daemon lanes of ``repro client compile --trace``) both write Chrome
trace events.  These goldens pin what each writes for fixed inputs:
fixed span ids, times, attributes and counters, serialized with
``json.dumps(..., sort_keys=True)``.  A change that is meant to keep the
files re-runs this test unmodified; one that is meant to move them
re-records ``AT_PARENT`` with ``golden_rows()`` at its parent first.

``ROWS_AT_PARENT`` is the second table: the daemon lane sent as
``repro-spans/2`` column-wise rows (:func:`_rows_streams`) stitches to the
file the parent of that wire form wrote for the same spans sent as
``repro-spans/1`` objects (:func:`_rows_streams_as_objects`, times in
whole microseconds, as rows carry them).
"""

import hashlib
import json

from repro.obs import CompileReport, SpanEvent, chrome_trace
from repro.obs.distributed import stitch

AT_PARENT = {
    "chrome_trace": "54a51800c4c58c2b0f326ac8870d4590b7db0db98d575ae3bb7021239358af24",
    "stitch": "e995ec7efee6c22448f7d32b7287740ea911c5830a341ab9891a30588982fe02",
}

ROWS_AT_PARENT = {
    "stitch": "366d141042f6d0a756d52f82bd3ee5da6398fc3acb5ed97a96145286540df6e1",
}

TRACE_ID = "0123456789abcdef0123456789abcdef"


def _report() -> CompileReport:
    report = CompileReport(record_events=True)
    # Appended in exit order, as a collector does: children first.
    for event in (
        SpanEvent(3, 2, "inner", 0.0125, 0.0031, tid=7,
                  attrs={"group": 1}, counters={"presburger.memo.hit": 2}),
        SpanEvent(4, 2, "inner", 0.0125, 0.0004, tid=7,
                  attrs={"shape": (8, 8), "ok": True}),
        SpanEvent(2, 1, "tile_shapes", 0.01, 0.02, tid=7,
                  counters={"presburger.memo.hit": 3, "other.counter": 1}),
        SpanEvent(5, None, "codegen", 0.5, 0.125, tid=9,
                  attrs={"target": "cpu", "bytes": 4096, "note": None}),
        SpanEvent(1, None, "optimize", 0.0, 0.25, tid=7,
                  attrs={"workload": "harris", "ratio": 0.375}),
    ):
        report.add_event(event)
    report.dropped_events = 2
    return report


def _streams():
    client = {
        "schema": "repro-spans/1",
        "service": "client",
        "wall_t0": 1700000000.25,
        "spans": [
            {"id": 1, "parent": None, "name": "client.request", "start": 0.001,
             "dur": 0.0875, "tid": 0, "attrs": {"workload": "conv2d"}},
        ],
        "dropped": 0,
        "truncated": 0,
    }
    daemon = {
        "schema": "repro-spans/1",
        "service": "daemon",
        "wall_t0": 1700000000.2578125,
        "spans": [
            {"id": 1, "parent": None, "name": "serve.request", "start": 0.0,
             "dur": 0.0625, "tid": 0, "attrs": {"workload": "conv2d"},
             "c": [[0, 4]]},
            {"id": 2, "parent": 1, "name": "optimize", "start": 0.0078125,
             "dur": 0.03125, "tid": 1, "attrs": {"fused": 3, "ok": False},
             "c": [[0, 1], [1, 6]]},
            {"id": 3, "parent": 2, "name": "codegen", "start": 0.015625,
             "dur": 0.0, "tid": 1, "attrs": {}},
        ],
        "counter_names": ["presburger.memo.hit", "presburger.fm_eliminate"],
        "dropped": 1,
        "truncated": 3,
    }
    return [client, daemon]


def _rows_streams():
    """``_streams()``'s client, and a daemon lane of column-wise rows in
    exit order, one of them carrying what was folded into it."""
    client, _daemon = _streams()
    daemon = {
        "schema": "repro-spans/2",
        "service": "daemon",
        "wall_t0": 1700000000.2578125,
        "names": ["codegen", "optimize", "serve.request"],
        "id": [3, 2, 1],
        "parent": [2, 1, None],
        "name": [0, 1, 2],
        "start_us": [15625, 7812, 0],
        "dur_us": [0, 31250, 62500],
        "tid": [1, 1, 0],
        "attrs": [[1, {"fused": 3, "ok": False}], [2, {"workload": "conv2d"}]],
        "c": [[1, 0, 1], [1, 1, 6], [1, 2, 40], [1, 3, 1250], [2, 0, 4]],
        "counter_names": ["presburger.memo.hit", "presburger.fm_eliminate",
                          "fold.fuse_space.calls", "fold.fuse_space.us"],
        "dropped": 1,
        "truncated": 3,
    }
    return [client, daemon]


def _rows_streams_as_objects():
    """The same spans as ``repro-spans/1`` objects, in entry order."""
    client, _daemon = _streams()
    daemon = {
        "schema": "repro-spans/1",
        "service": "daemon",
        "wall_t0": 1700000000.2578125,
        "spans": [
            {"id": 1, "parent": None, "name": "serve.request", "start": 0.0,
             "dur": 0.0625, "tid": 0, "attrs": {"workload": "conv2d"},
             "c": [[0, 4]]},
            {"id": 2, "parent": 1, "name": "optimize", "start": 0.007812,
             "dur": 0.03125, "tid": 1, "attrs": {"fused": 3, "ok": False},
             "c": [[0, 1], [1, 6], [2, 40], [3, 1250]]},
            {"id": 3, "parent": 2, "name": "codegen", "start": 0.015625,
             "dur": 0.0, "tid": 1, "attrs": {}},
        ],
        "counter_names": ["presburger.memo.hit", "presburger.fm_eliminate",
                          "fold.fuse_space.calls", "fold.fuse_space.us"],
        "dropped": 1,
        "truncated": 3,
    }
    return [client, daemon]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def golden_rows():
    """The rows of ``AT_PARENT``, computed by the code under test."""
    texts = {
        "chrome_trace": json.dumps(chrome_trace(_report()), sort_keys=True),
        "stitch": json.dumps(stitch(_streams(), TRACE_ID), sort_keys=True),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def test_chrome_files_are_the_parents():
    assert golden_rows() == AT_PARENT


def test_rows_stitch_to_the_parents_file():
    assert _digest(stitch(_rows_streams(), TRACE_ID)) == ROWS_AT_PARENT["stitch"]
    assert _digest(stitch(_rows_streams_as_objects(), TRACE_ID)) == ROWS_AT_PARENT["stitch"]
