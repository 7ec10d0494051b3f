"""Tracing one daemon request: the client's spans and the daemon's, in one file.

``repro client compile --trace OUT.json`` is the one cross-process trace
this package makes.  The client mints a trace id (:func:`new_trace_id`)
and sends it as the request's ``trace`` field; the daemon records its
``serve.request`` span tree under that id straight into column-wise
``repro-spans/2`` rows (:class:`WireRows`) and returns them in the reply;
the client records its own lane into the same rows, checks the daemon's
payload (:func:`validate_wire_spans`: it is outside input, and any other
schema is an error) and :func:`stitch` puts both lanes onto one
wall-clock timeline as one Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

import secrets
from time import perf_counter, time
from typing import Dict, List, Mapping, Sequence

from .export import TRACE_SCHEMA, _entry_order, chrome_lane, plain_attrs
from .trace import CompileReport, SpanEvent

#: Schema tag of the column-wise span rows a lane is sent as (:class:`WireRows`).
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
    handed to :meth:`add_event` each get a row.

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


#: What :func:`stitch` and :func:`wire_to_events` read from a ``repro-spans/2``
#: payload, as (required fields, fields checked if present); each column
#: holds one value per row.
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


def validate_wire_spans(payload: object) -> List[str]:
    """Errors in a ``repro-spans/2`` payload (empty list = valid), so one
    that passes cannot crash :func:`stitch` or :func:`wire_to_events`."""
    if not isinstance(payload, Mapping):
        return ["spans payload: expected object"]
    if payload.get("schema") != ROWS_SCHEMA:
        return [f"schema: expected {ROWS_SCHEMA!r}"]
    required, optional = _ROWS_FIELDS
    errors = [f"{k}: missing or mistyped" for k, t in {**required, **optional}.items()
              if (k in required or k in payload) and not isinstance(payload.get(k), t)]
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


def wire_to_events(payload: Mapping[str, object]) -> List[SpanEvent]:
    """A ``repro-spans/2`` payload's rows back into :class:`SpanEvent`
    objects (ids kept as-is), in entry order."""
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
    "WireRows",
    "new_trace_id",
    "stitch",
    "validate_wire_spans",
    "wire_to_events",
]
