"""Tracing one daemon request: the client's spans and the daemon's, in one file.

``repro client compile --trace OUT.json`` is the one cross-process trace
this package makes.  The client mints a trace id (:func:`new_trace_id`)
and sends it as the request's ``trace`` field; the daemon records its
``serve.request`` span tree under that id straight into column-wise
``repro-spans/2`` rows (:class:`WireRows`) and returns them in the reply;
the client checks the payload (:func:`validate_wire_spans`: it is outside
input) and :func:`stitch` puts both lanes (the client's own is a
``repro-spans/1`` list of span objects, :func:`report_to_wire`) onto one
wall-clock timeline as one Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

import secrets
from time import perf_counter, time
from typing import Dict, List, Mapping, Sequence

from .export import TRACE_SCHEMA, _entry_order, chrome_lane, plain_attrs
from .trace import CompileReport, SpanEvent

#: Schema tag of a span stream as a list of span objects (:func:`report_to_wire`).
WIRE_SCHEMA = "repro-spans/1"
#: Schema tag of the column-wise span rows a daemon reply carries (:class:`WireRows`).
ROWS_SCHEMA = "repro-spans/2"
#: Cap on spans serialized into one wire payload (mirrors ``MAX_EVENTS``:
#: a runaway trace must not blow up an RPC response).
MAX_WIRE_SPANS = 4000
#: :class:`WireRows` keeps a row for each span at most this many spans
#: below the request's root (``serve.request``, ``compile_batch``,
#: ``optimize``, a pass); a deeper one is folded into the pass.
FOLD_DEPTH = 3


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


class WireRows(CompileReport):
    """A tracing collector that records each span straight into its
    ``repro-spans/2`` wire row: no :class:`SpanEvent`, no per-span dict
    copy, and a payload (:meth:`payload`) that is already column-wise.

    Each column holds one value per row, in exit order: ``id``,
    ``parent``, ``name`` (an index into ``names``, each name sent once),
    ``start_us`` / ``dur_us`` (integer microseconds from the report's
    epoch) and ``tid`` (a small per-payload lane index).  ``attrs`` holds
    ``[row, attrs]`` for the rows that have attributes, ``c`` holds
    ``[row, name_index, count]`` triples against ``counter_names``.

    A span more than :data:`FOLD_DEPTH` spans below the root gets no frame
    of its own and no row (``CompileReport.fold_depth``): it is folded
    into the span open at that depth, whose row counts it as
    ``fold.<name>.calls`` and ``fold.<name>.us`` and takes every counter
    bumped inside it.  On the daemon's compile path that is everything
    below a pass (``startup_fusion``, ``tile_shapes``, ``post_fusion``):
    ``scheduler``, ``algorithm1``, ``tile_group``, each ``fuse_space``
    and each ``splice_extension``.  A reader of the trace loses those
    spans' own start times, nesting, attributes and errors, and keeps how
    often each ran, for how long in total, and every counter.  Events
    merged from a worker (:meth:`add_event`) each get a row.

    The aggregates of a :class:`CompileReport` (spans, counters,
    histograms, gauges) are kept as usual, so the report absorbs into a
    registry like any other.
    """

    def __init__(self, service: str):
        super().__init__(record_events=True, fold_depth=FOLD_DEPTH)
        self.service = service
        self.truncated = 0
        self.columns: Dict[str, list] = {
            k: [] for k in ("id", "parent", "name", "start_us", "dur_us", "tid")
        }
        self.attrs: List[list] = []
        self.counts: List[list] = []
        self._names: Dict[str, int] = {}
        self._counter_names: Dict[str, int] = {}
        self._tids: Dict[int, int] = {}

    def record_span(self, frame, t0, seconds, tid) -> None:
        self._row(frame.id, frame.parent, frame.name, t0 - self.epoch, seconds,
                  tid, frame.attrs, frame.counters)

    def add_event(self, event: SpanEvent) -> None:
        self._row(event.id, event.parent, event.name, event.start, event.duration,
                  event.tid, event.attrs, event.counters)

    def _row(self, id, parent, name, start, seconds, tid, attrs, counters) -> None:
        cols = self.columns
        row = len(cols["id"])
        if row >= MAX_WIRE_SPANS:
            self.truncated += 1
            return
        cols["id"].append(id)
        cols["parent"].append(parent)
        cols["name"].append(self._names.setdefault(name, len(self._names)))
        cols["start_us"].append(round(start * 1e6))
        cols["dur_us"].append(round(seconds * 1e6))
        cols["tid"].append(self._tids.setdefault(tid, len(self._tids)))
        if attrs:
            self.attrs.append([row, plain_attrs(attrs)])
        names = self._counter_names
        for k, n in counters.items():
            self.counts.append([row, names.setdefault(k, len(names)), n])

    def payload(self) -> Dict[str, object]:
        """The rows as one JSON-serializable ``repro-spans/2`` payload."""
        return {
            "schema": ROWS_SCHEMA,
            "service": self.service,
            "wall_t0": _wall_anchor(self),
            "names": list(self._names),
            **self.columns,
            "attrs": self.attrs,
            "c": self.counts,
            "counter_names": list(self._counter_names),
            "dropped": self.dropped_events,
            "truncated": self.truncated,
        }


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


#: The same for a ``repro-spans/2`` payload; each column holds one value per row.
_ROWS_FIELDS = ({"wall_t0": (int, float), "names": list, "id": list, "parent": list,
                 "name": list, "start_us": list, "dur_us": list, "tid": list},
                {"attrs": list, "c": list, "counter_names": list, "dropped": int,
                 "truncated": int})
_COLUMN_TYPES = {"id": int, "parent": (int, type(None)), "name": int,
                 "start_us": int, "dur_us": int, "tid": int}


def _is_row_entry(entry, n_rows: int, types) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == len(types)
        and all(isinstance(x, t) for x, t in zip(entry, types))
        and 0 <= entry[0] < n_rows
    )


def _rows_errors(payload: Mapping[str, object]) -> List[str]:
    errors = _field_errors(payload, "", _ROWS_FIELDS)
    if errors:
        return errors
    n_rows = len(payload["id"])
    names = payload["names"]
    if not all(isinstance(n, str) for n in names):
        errors.append("names: expected strings")
    for column, t in _COLUMN_TYPES.items():
        values = payload[column]
        if len(values) != n_rows or not all(
            isinstance(v, t) and not isinstance(v, bool) for v in values
        ):
            errors.append(f"{column}: expected {n_rows} values of one type")
    if not all(0 <= i < len(names) for i in payload["name"] if isinstance(i, int)):
        errors.append("name: index outside names")
    if not all(_is_row_entry(e, n_rows, (int, dict)) for e in payload.get("attrs", [])):
        errors.append("attrs: expected [row, object] pairs")
    if not all(_is_row_entry(e, n_rows, (int, int, int)) for e in payload.get("c", [])):
        errors.append("c: expected [row, index, count] int triples")
    return errors


def validate_wire_spans(payload: object) -> List[str]:
    """Errors in a ``repro-spans/1`` or ``/2`` payload (empty list =
    valid), so one that passes cannot crash :func:`stitch` or
    :func:`wire_to_events`."""
    if not isinstance(payload, Mapping):
        return ["spans payload: expected object"]
    if payload.get("schema") == ROWS_SCHEMA:
        return _rows_errors(payload)
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


def _rows_to_events(payload: Mapping[str, object]) -> List[SpanEvent]:
    names, counter_names = payload["names"], payload.get("counter_names", [])
    attrs = {row: dict(a) for row, a in payload.get("attrs", [])}
    counters: Dict[int, Dict[str, int]] = {}
    for row, idx, n in payload.get("c", []):
        if 0 <= idx < len(counter_names):
            counters.setdefault(row, {})[str(counter_names[idx])] = int(n)
    columns = zip(payload["id"], payload["parent"], payload["name"],
                  payload["start_us"], payload["dur_us"], payload["tid"])
    return _entry_order([
        SpanEvent(id=id, parent=parent, name=str(names[name]), start=start / 1e6,
                  duration=dur / 1e6, tid=tid, attrs=attrs.get(row, {}),
                  counters=counters.get(row, {}))
        for row, (id, parent, name, start, dur, tid) in enumerate(columns)
    ])


def wire_to_events(payload: Mapping[str, object]) -> List[SpanEvent]:
    """Wire spans back into :class:`SpanEvent` objects (ids kept as-is):
    a ``repro-spans/1`` payload's in its order, a ``/2`` payload's rows in
    entry order."""
    if payload.get("schema") == ROWS_SCHEMA:
        return _rows_to_events(payload)
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
    lanes = [(s, wire_to_events(s)) for s in streams if s]
    lanes = [(s, events) for s, events in lanes if events]
    base = min((float(s["wall_t0"]) for s, _ in lanes), default=0.0)
    trace: List[Dict[str, object]] = []
    for pid, (stream, events) in enumerate(lanes, start=1):
        trace += chrome_lane(
            pid,
            str(stream.get("service", f"process {pid}")),
            events,
            offset=float(stream["wall_t0"]) - base,
            trace_id=trace_id,
        )
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "spans": sum(len(events) for _, events in lanes),
            "dropped_events": sum(
                int(s.get("dropped", 0)) + int(s.get("truncated", 0)) for s, _ in lanes
            ),
            "services": [str(s.get("service", "")) for s, _ in lanes],
            "trace_id": trace_id,
        },
    }


__all__ = [
    "FOLD_DEPTH",
    "MAX_WIRE_SPANS",
    "ROWS_SCHEMA",
    "WIRE_SCHEMA",
    "WireRows",
    "new_trace_id",
    "report_to_wire",
    "stitch",
    "validate_wire_spans",
    "wire_to_events",
]
