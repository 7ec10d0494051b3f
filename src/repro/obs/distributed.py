"""Distributed tracing: one trace across client, daemon and workers.

A compile that flows ``repro client`` → ``repro serve`` → batch worker
crosses up to three processes; each of them records spans into its own
:class:`~repro.obs.trace.CompileReport`, and without a shared identity
those span forests cannot be reassembled.  This module supplies that
identity and the glue around it:

* :class:`TraceContext` — a W3C-traceparent-style context
  (``trace_id``/``span_id``/head-sampling flag) with two serialized
  forms: the ``traceparent`` line (``00-<trace>-<span>-<flags>``) for
  worker environments (:data:`ENV_VAR`), and a JSON object
  (:meth:`TraceContext.to_wire`) for the optional ``trace`` field of
  ``repro-serve/1`` requests;
* an ambient per-thread *current context*
  (:func:`use_context`/:func:`current_context`) so layers that never see
  the request — the batch driver handing work to a process pool — can
  stamp the right ids on what they send on;
* **wire spans** (:func:`report_to_wire`/:func:`wire_to_events`) — a
  bounded JSON form of a traced report plus a wall-clock anchor, so a
  daemon can hand its span tree back to the client that caused it;
* **stitching** (:func:`stitch`) — span streams from any number of
  processes, each anchored by its own ``wall_t0``, merged onto one
  wall-clock timeline as one Perfetto-loadable Chrome trace (one ``pid``
  lane per service).

Sampling follows the head-based model: the caller that *mints* the
context decides (:func:`sample`), everyone downstream honours the flag.
An unsampled context costs downstream layers only the null-span fast
path — they never open a tracing collector.
"""

from __future__ import annotations

import json
import random
import re
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .export import TRACE_SCHEMA, _entry_order
from .trace import CompileReport, SpanEvent

#: Environment variable carrying the context into worker processes.
ENV_VAR = "REPRO_TRACE"
#: Schema tag of the wire-span payload exchanged over ``repro-serve/1``.
WIRE_SCHEMA = "repro-spans/1"
#: Cap on spans serialized into one wire payload (mirrors ``MAX_EVENTS``:
#: a runaway trace must not blow up an RPC response).
MAX_WIRE_SPANS = 4000

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")
_HEADER_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


def _new_trace_id() -> str:
    return secrets.token_hex(16)


def _new_span_id() -> str:
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """Identity of one distributed trace, as seen from one span.

    ``span_id`` names the *owning* span: when the context crosses a
    process boundary it is sent as ``parent_span_id`` and the receiver's
    spans nest (logically) under it.  ``sampled`` is the head-sampling
    decision made where the trace was minted; unsampled contexts still
    propagate (so lifecycle events keep their ids) but no process records
    span events for them.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self) -> "TraceContext":
        """A fresh span id under the same trace (crossing one more hop)."""
        return TraceContext(self.trace_id, _new_span_id(), self.sampled)

    # -- traceparent form (worker env) ---------------------------------------

    def to_header(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["TraceContext"]:
        if not value:
            return None
        m = _HEADER_RE.match(value.strip())
        if not m:
            return None
        return cls(m.group(1), m.group(2), sampled=bool(int(m.group(3), 16) & 1))

    # -- JSON wire form (the ``trace`` request field) -----------------------

    def to_wire(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_wire(cls, obj: Optional[Mapping[str, object]]) -> Optional["TraceContext"]:
        if not obj or validate_trace_field(obj):
            return None
        return cls(
            str(obj["trace_id"]),
            str(obj.get("parent_span_id") or _new_span_id()),
            sampled=bool(obj.get("sampled", True)),
        )


def new_context(sampled: bool = True) -> TraceContext:
    """Mint a brand-new trace (the client/CLI entry point)."""
    return TraceContext(_new_trace_id(), _new_span_id(), sampled=sampled)


def sample(rate: float) -> bool:
    """Head-sampling decision for a freshly minted trace."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return random.random() < rate


def validate_trace_field(obj: object) -> List[str]:
    """Errors in a ``trace`` request field (empty list = valid).

    Both ends of ``repro-serve/1`` run this; an *absent* field is always
    valid (that check lives in the protocol layer), a present one must be
    well-formed so a typo'd trace id fails loudly instead of silently
    breaking stitching.
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"trace: expected object, got {type(obj).__name__}"]
    tid = obj.get("trace_id")
    if not isinstance(tid, str) or not _TRACE_ID_RE.match(tid):
        errors.append("trace.trace_id: expected 32 lowercase hex chars")
    psid = obj.get("parent_span_id")
    if psid is not None and (
        not isinstance(psid, str) or not _SPAN_ID_RE.match(psid)
    ):
        errors.append("trace.parent_span_id: expected 16 lowercase hex chars")
    sampled = obj.get("sampled")
    if sampled is not None and not isinstance(sampled, bool):
        errors.append("trace.sampled: expected boolean")
    for key in obj:
        if key not in ("trace_id", "parent_span_id", "sampled"):
            errors.append(f"trace.{key}: unknown field")
    return errors


# ---------------------------------------------------------------------------
# ambient per-thread context

_ctx_state = threading.local()


def current_context() -> Optional[TraceContext]:
    """The context entered via :func:`use_context` on this thread, if any."""
    stack = getattr(_ctx_state, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use_context(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` the ambient context for the enclosed block.

    ``None`` is accepted and pushes nothing, so call sites can write
    ``with use_context(maybe_ctx):`` without branching.
    """
    if ctx is None:
        yield None
        return
    stack = getattr(_ctx_state, "stack", None)
    if stack is None:
        stack = _ctx_state.stack = []
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.remove(ctx)


def context_from_env(environ: Mapping[str, str]) -> Optional[TraceContext]:
    """Parse :data:`ENV_VAR` from a worker's environment, if set."""
    return TraceContext.from_header(environ.get(ENV_VAR))


# ---------------------------------------------------------------------------
# wire spans: a traced report serialized for an RPC response / event log


def wall_anchor(report: CompileReport) -> float:
    """Unix time corresponding to the report's perf_counter epoch.

    Computed from the *current* pair of clocks, so it is exact up to the
    (sub-microsecond) time between the two reads; span ``start`` offsets
    added to it place events on the shared wall-clock timeline stitching
    needs.
    """
    return time() - (perf_counter() - report.epoch)


def _plain_attrs(attrs: Mapping[str, object]) -> Dict[str, object]:
    """Span attributes scrubbed to JSON-primitive values."""
    return {
        k: v if isinstance(v, (int, float, bool, str, type(None))) else str(v)
        for k, v in attrs.items()
    }


def report_to_wire(
    report: CompileReport,
    service: str,
    ctx: Optional[TraceContext] = None,
    limit: int = MAX_WIRE_SPANS,
) -> Dict[str, object]:
    """The report's span events as one JSON-serializable stream.

    The wire form is size-conscious because a sampled request ships it
    back through the daemon response on every call: timestamps are
    rounded to nanoseconds (sub-ns float digits are timer noise), thread
    ids are compacted to small per-payload lane indices, and per-span
    counters — whose dotted names repeat across hundreds of spans — are
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
            "attrs": _plain_attrs(e.attrs),
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
        "wall_t0": wall_anchor(report),
        "spans": spans,
        "dropped": report.dropped_events,
        "truncated": max(0, len(events) - limit),
    }
    if counter_names:
        payload["counter_names"] = list(counter_names)
    if ctx is not None:
        payload["trace_id"] = ctx.trace_id
        payload["parent_span_id"] = ctx.span_id
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
# stitching: many per-process streams -> one Perfetto-loadable trace


def stream_from_report(
    report: CompileReport,
    service: str,
    ctx: Optional[TraceContext] = None,
) -> Dict[str, object]:
    """A local report as a stitchable stream (same shape as wire payloads)."""
    return report_to_wire(report, service, ctx)


def stitch(
    streams: Sequence[Mapping[str, object]],
    trace_id: Optional[str] = None,
) -> Dict[str, object]:
    """Merge per-process span streams into one Chrome trace object.

    Each stream gets its own ``pid`` lane named after its ``service``;
    events are rebased onto a shared wall-clock timeline via each
    stream's ``wall_t0`` anchor, and every event's args carry the
    ``trace_id`` so cross-lane membership is greppable in the JSON and
    visible in Perfetto's args panel.
    """
    streams = [s for s in streams if s and s.get("spans")]
    if not streams:
        base = 0.0
    else:
        base = min(float(s["wall_t0"]) for s in streams)
    if trace_id is None:
        for s in streams:
            if s.get("trace_id"):
                trace_id = str(s["trace_id"])
                break
    events: List[Dict[str, object]] = []
    dropped = 0
    for pid, stream in enumerate(streams, start=1):
        offset = float(stream["wall_t0"]) - base
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": str(stream.get("service", f"process {pid}"))},
            }
        )
        dropped += int(stream.get("dropped", 0)) + int(stream.get("truncated", 0))
        counter_names = stream.get("counter_names", [])
        for s in stream["spans"]:
            args = dict(s.get("attrs", {}))
            for name, n in _span_counters(s, counter_names).items():
                args[f"counter.{name}"] = n
            if trace_id is not None:
                args["trace_id"] = trace_id
            events.append(
                {
                    "name": str(s["name"]),
                    "cat": "compile",
                    "ph": "X",
                    "ts": max(0.0, (offset + float(s["start"]))) * 1e6,
                    "dur": float(s["dur"]) * 1e6,
                    "pid": pid,
                    "tid": int(s.get("tid", 0)),
                    "args": args,
                }
            )
    other: Dict[str, object] = {
        "schema": TRACE_SCHEMA,
        "spans": sum(len(s["spans"]) for s in streams),
        "dropped_events": dropped,
        "services": [str(s.get("service", "")) for s in streams],
    }
    if trace_id is not None:
        other["trace_id"] = trace_id
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def stitch_event_logs(
    paths: Sequence[str], trace_id: str
) -> Tuple[Dict[str, object], int]:
    """Assemble a trace from ``type: "trace"`` records in event-log files.

    Every daemon appends one wire-span record per sampled request to its
    event log; ``repro trace --request <id>`` collects the records
    matching ``trace_id`` across any number of logs — from different
    hosts, as long as their clocks are NTP-close — and stitches them.  A record that fails :func:`validate_wire_spans` is
    skipped.  Returns the Chrome trace dict and the number of streams
    found.
    """
    streams: List[Mapping[str, object]] = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if (
                    isinstance(rec, dict)
                    and rec.get("type") == "trace"
                    and rec.get("trace_id") == trace_id
                    and not validate_wire_spans(rec)
                ):
                    streams.append(rec)
    streams.sort(key=lambda s: float(s["wall_t0"]))
    return stitch(streams, trace_id=trace_id), len(streams)


__all__ = [
    "ENV_VAR",
    "MAX_WIRE_SPANS",
    "WIRE_SCHEMA",
    "TraceContext",
    "context_from_env",
    "current_context",
    "new_context",
    "report_to_wire",
    "sample",
    "stitch",
    "stitch_event_logs",
    "stream_from_report",
    "use_context",
    "validate_trace_field",
    "validate_wire_spans",
    "wall_anchor",
    "wire_to_events",
]
