"""Tracing one daemon request: the client's spans and the daemon's, in one file.

``repro client compile --trace OUT.json`` is the one cross-process trace
this package makes.  The client mints a trace id (:func:`new_trace_id`)
and sends it as the request's ``trace`` field; the daemon records its
``serve.request`` span tree under that id and returns it in the reply as
a bounded ``repro-spans/1`` payload (:func:`report_to_wire`); the client
checks the payload (:func:`validate_wire_spans`: it is outside input) and
:func:`stitch` puts both lanes onto one wall-clock timeline as one
Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

import secrets
from time import perf_counter, time
from typing import Dict, List, Mapping, Sequence

from .export import TRACE_SCHEMA, _entry_order, chrome_lane, plain_attrs
from .trace import CompileReport, SpanEvent

#: Schema tag of the wire-span payload exchanged over ``repro-serve/1``.
WIRE_SCHEMA = "repro-spans/1"
#: Cap on spans serialized into one wire payload (mirrors ``MAX_EVENTS``:
#: a runaway trace must not blow up an RPC response).
MAX_WIRE_SPANS = 4000


def new_trace_id() -> str:
    """A fresh trace id: 32 lowercase hex chars (``protocol.TRACE_ID``)."""
    return secrets.token_hex(16)


# ---------------------------------------------------------------------------
# wire spans: a traced report serialized for an RPC response


def _wall_anchor(report: CompileReport) -> float:
    """Unix time corresponding to the report's perf_counter epoch.

    Computed from the *current* pair of clocks, so it is exact up to the
    (sub-microsecond) time between the two reads; span ``start`` offsets
    added to it place events on the shared wall-clock timeline stitching
    needs.
    """
    return time() - (perf_counter() - report.epoch)


def report_to_wire(
    report: CompileReport, service: str, limit: int = MAX_WIRE_SPANS
) -> Dict[str, object]:
    """The report's span events as one JSON-serializable stream.

    The wire form is size-conscious because a traced request ships it
    back through the daemon response: timestamps are rounded to
    nanoseconds (sub-ns float digits are timer noise), thread ids are
    compacted to small per-payload lane indices, and per-span counters —
    whose dotted names repeat across hundreds of spans — are
    dictionary-encoded as ``[name_index, value]`` pairs against the
    payload-level ``counter_names`` table.
    """
    events = _entry_order(report.events)
    counter_names: Dict[str, int] = {}
    tids: Dict[int, int] = {}
    spans: List[Dict[str, object]] = []
    for e in events[:limit]:
        entry: Dict[str, object] = {
            "id": e.id,
            "parent": e.parent,
            "name": e.name,
            "start": round(e.start, 9),
            "dur": round(e.duration, 9),
            "tid": tids.setdefault(e.tid, len(tids)),
            "attrs": plain_attrs(e.attrs),
        }
        if e.counters:
            entry["c"] = [
                [counter_names.setdefault(k, len(counter_names)), n]
                for k, n in e.counters.items()
            ]
        spans.append(entry)
    payload: Dict[str, object] = {
        "schema": WIRE_SCHEMA,
        "service": service,
        "wall_t0": _wall_anchor(report),
        "spans": spans,
        "dropped": report.dropped_events,
        "truncated": max(0, len(events) - limit),
    }
    if counter_names:
        payload["counter_names"] = list(counter_names)
    return payload


def _span_counters(
    span: Mapping[str, object], counter_names: Sequence[str]
) -> Dict[str, int]:
    """Decode one wire span's ``[name_index, value]`` counter pairs."""
    out: Dict[str, int] = {}
    for idx, n in span.get("c", []):
        idx = int(idx)
        if 0 <= idx < len(counter_names):
            out[str(counter_names[idx])] = int(n)
    return out


#: What :func:`stitch` and :func:`wire_to_events` read from a wire payload
#: and from each of its spans: (required fields, fields checked if present).
_WIRE_FIELDS = ({"wall_t0": (int, float), "spans": list},
                {"dropped": int, "truncated": int, "counter_names": list})
_SPAN_FIELDS = ({"id": int, "name": str, "start": (int, float), "dur": (int, float)},
                {"parent": (int, type(None)), "tid": int, "attrs": dict, "c": list})


def _field_errors(obj: Mapping[str, object], where: str, fields) -> List[str]:
    required, optional = fields
    return [f"{where}{k}: missing or mistyped" for k, t in {**required, **optional}.items()
            if (k in required or k in obj) and not isinstance(obj.get(k), t)]


def validate_wire_spans(payload: object) -> List[str]:
    """Errors in a ``repro-spans/1`` payload (empty list = valid), so one
    that passes cannot crash :func:`stitch` or :func:`wire_to_events`."""
    if not isinstance(payload, Mapping):
        return ["spans payload: expected object"]
    errors = _field_errors(payload, "", _WIRE_FIELDS)
    spans = payload.get("spans")
    for i, s in enumerate(spans if isinstance(spans, list) else ()):
        if not isinstance(s, Mapping):
            errors.append(f"spans[{i}]: expected object")
            continue
        errors += _field_errors(s, f"spans[{i}].", _SPAN_FIELDS)
        pairs = s.get("c")
        if isinstance(pairs, list) and not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) for x in p)
            for p in pairs
        ):
            errors.append(f"spans[{i}].c: expected [index, count] int pairs")
    return errors


def wire_to_events(payload: Mapping[str, object]) -> List[SpanEvent]:
    """Wire spans back into :class:`SpanEvent` objects (ids kept as-is)."""
    counter_names = payload.get("counter_names", [])
    out: List[SpanEvent] = []
    for s in payload.get("spans", []):
        out.append(
            SpanEvent(
                id=int(s["id"]),
                parent=None if s.get("parent") is None else int(s["parent"]),
                name=str(s["name"]),
                start=float(s["start"]),
                duration=float(s["dur"]),
                tid=int(s.get("tid", 0)),
                attrs=dict(s.get("attrs", {})),
                counters=_span_counters(s, counter_names),
            )
        )
    return out


# ---------------------------------------------------------------------------
# stitching: the client's and the daemon's streams -> one Perfetto trace


def stitch(
    streams: Sequence[Mapping[str, object]], trace_id: str
) -> Dict[str, object]:
    """Merge per-process span streams into one Chrome trace object.

    Each stream gets its own ``pid`` lane named after its ``service``;
    events are rebased onto a shared wall-clock timeline via each
    stream's ``wall_t0`` anchor, and every event's args carry the
    ``trace_id`` so cross-lane membership is greppable in the JSON and
    visible in Perfetto's args panel.
    """
    streams = [s for s in streams if s and s.get("spans")]
    base = min((float(s["wall_t0"]) for s in streams), default=0.0)
    events: List[Dict[str, object]] = []
    for pid, stream in enumerate(streams, start=1):
        events += chrome_lane(
            pid,
            str(stream.get("service", f"process {pid}")),
            wire_to_events(stream),
            offset=float(stream["wall_t0"]) - base,
            trace_id=trace_id,
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "spans": sum(len(s["spans"]) for s in streams),
            "dropped_events": sum(
                int(s.get("dropped", 0)) + int(s.get("truncated", 0)) for s in streams
            ),
            "services": [str(s.get("service", "")) for s in streams],
            "trace_id": trace_id,
        },
    }


__all__ = [
    "MAX_WIRE_SPANS",
    "WIRE_SCHEMA",
    "new_trace_id",
    "report_to_wire",
    "stitch",
    "validate_wire_spans",
    "wire_to_events",
]
