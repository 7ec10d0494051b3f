"""The Chrome trace files are the parent's, byte for byte.

``chrome_trace`` (one local report) and ``stitch`` (the client and
daemon lanes of ``repro client compile --trace``) both write Chrome
trace events.  These goldens pin what each writes for fixed inputs:
fixed span ids, times, attributes and counters, serialized with
``json.dumps(..., sort_keys=True)``.  A change that is meant to keep the
files re-runs this test unmodified; one that is meant to move them
re-records ``AT_PARENT`` with ``golden_rows()`` at its parent first.

``ROWS_AT_PARENT`` is the stitched file: both lanes sent as
``repro-spans/2`` column-wise rows (:func:`_rows_streams`) stitch to the
file the parent of that wire form wrote for the same spans sent as span
objects (times in whole microseconds, as rows carry them).
"""

import hashlib
import json

from repro.obs import CompileReport, SpanEvent, chrome_trace
from repro.obs.distributed import stitch

AT_PARENT = {
    "chrome_trace": "54a51800c4c58c2b0f326ac8870d4590b7db0db98d575ae3bb7021239358af24",
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


def _rows_streams():
    """A client lane of one row, and a daemon lane of column-wise rows in
    exit order, one of them carrying what was folded into it."""
    client = {
        "schema": "repro-spans/2",
        "service": "client",
        "wall_t0": 1700000000.25,
        "names": ["client.request"],
        "id": [1],
        "parent": [None],
        "name": [0],
        "start_us": [1000],
        "dur_us": [87500],
        "tid": [0],
        "attrs": [[0, {"workload": "conv2d"}]],
        "c": [],
        "counter_names": [],
        "dropped": 0,
        "truncated": 0,
    }
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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def golden_rows():
    """The rows of ``AT_PARENT``, computed by the code under test."""
    texts = {
        "chrome_trace": json.dumps(chrome_trace(_report()), sort_keys=True),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def test_chrome_files_are_the_parents():
    assert golden_rows() == AT_PARENT


def test_rows_stitch_to_the_parents_file():
    assert _digest(stitch(_rows_streams(), TRACE_ID)) == ROWS_AT_PARENT["stitch"]
