"""Hierarchical compile tracing: spans, counters, histograms, reports.

This is the recording side of ``repro.obs``.  The optimizer's passes wrap
themselves in ``with span("tile_shapes"):`` and hot kernels bump counters
(``count("presburger.fm_eliminate")``) or histograms
(``observe("presburger.fm.eliminated_dims", n)``).  All of it is
near-free when nobody is listening: a :class:`CompileReport` only
accumulates inside a ``with collect() as report:`` block on the same
thread, and the no-listener fast path of :func:`span`/:func:`count` is a
single thread-local read (asserted by ``benchmarks/bench_obs_overhead.py``).

Two listening levels exist:

* ``collect()`` — aggregate per-span timings and counters (the historical
  ``optimize --stats`` behaviour);
* ``collect(trace=True)`` — additionally record every span entry as a
  :class:`SpanEvent` with parent/child links, per-span attributes and
  per-span counter deltas.  Event streams export as Chrome trace-event
  JSON via :mod:`repro.obs.export`.

This module imports only the stdlib and :mod:`repro.obs.metrics`, so the
lowest layers (``repro.presburger``) can use it without an import cycle.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

from .metrics import DEFAULT_BUCKETS, Histogram

#: Event-stream cap per report: a runaway presburger loop must not turn a
#: trace into a multi-gigabyte file.  Overflow increments ``dropped_events``.
MAX_EVENTS = 200_000


@dataclass
class SpanStat:
    """Aggregate of every entry into one named span."""

    calls: int = 0
    seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds


@dataclass
class SpanEvent:
    """One recorded span entry (only under ``collect(trace=True)``).

    ``start`` is seconds since the owning report's epoch; ``parent`` links
    to the enclosing span's ``id`` (``None`` for roots).  ``counters``
    holds the deltas of every counter bumped while this span was the
    innermost open span — memo hits/misses, FM eliminations — so hot-path
    behaviour is attributable to the pass that triggered it.
    """

    id: int
    parent: Optional[int]
    name: str
    start: float
    duration: float
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class CompileReport:
    """Everything observed during one instrumented region."""

    spans: Dict[str, SpanStat] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    record_events: bool = False
    max_events: int = MAX_EVENTS
    dropped_events: int = 0
    #: perf_counter value event ``start`` offsets are relative to.  Only
    #: meaningful within the recording process.
    epoch: float = field(default_factory=perf_counter)
    #: The deepest span (the number of traced spans open around it) that
    #: gets its own event; a deeper one is folded into the span open at
    #: this depth (see :func:`span`).  Only when every tracing collector
    #: on the thread folds, at the deepest of their depths.
    fold_depth: int = sys.maxsize

    # -- recording ---------------------------------------------------------

    def add_span(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, SpanStat()).add(seconds)

    def add_count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_event(self, event: SpanEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def record_span(self, frame: "_Frame", t0: float, seconds: float, tid: int) -> None:
        """Record one traced span that just exited (``t0`` is its
        ``perf_counter`` entry time) as a :class:`SpanEvent`; a subclass
        may record something cheaper (``repro.obs.distributed.WireRows``)."""
        self.add_event(
            SpanEvent(
                id=frame.id,
                parent=frame.parent,
                name=frame.name,
                start=t0 - self.epoch,
                duration=seconds,
                tid=tid,
                attrs=dict(frame.attrs),
                counters=dict(frame.counters),
            )
        )

    def observe(
        self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(buckets)
        h.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- views -------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "spans": {
                k: {"calls": v.calls, "seconds": v.seconds}
                for k, v in self.spans.items()
            },
            "counters": dict(self.counters),
        }
        if self.gauges:
            out["gauges"] = dict(self.gauges)
        if self.histograms:
            out["histograms"] = {
                k: h.as_dict() for k, h in self.histograms.items()
            }
        if self.record_events:
            out["events"] = len(self.events)
            out["dropped_events"] = self.dropped_events
        return out

    def format(self, indent: str = "  ") -> str:
        """A human-readable multi-line rendering for ``--stats``."""
        lines: List[str] = []
        if self.spans:
            lines.append("per-pass timings:")
            width = max(len(k) for k in self.spans)
            for name, stat in sorted(
                self.spans.items(), key=lambda kv: -kv[1].seconds
            ):
                lines.append(
                    f"{indent}{name.ljust(width)}  "
                    f"{stat.seconds * 1e3:9.2f} ms  ({stat.calls} calls)"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(k) for k in self.counters)
            for name in sorted(self.counters):
                lines.append(f"{indent}{name.ljust(width)}  {self.counters[name]}")
        if self.histograms:
            lines.append("histograms:")
            width = max(len(k) for k in self.histograms)
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"{indent}{name.ljust(width)}  n={h.count} mean={h.mean:.2f} "
                    f"min={h.min} max={h.max}"
                )
        if self.gauges:
            lines.append("gauges:")
            width = max(len(k) for k in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"{indent}{name.ljust(width)}  {self.gauges[name]:g}")
        return "\n".join(lines) if lines else "(no instrumentation recorded)"


_state = threading.local()
#: Process-wide event id source (GIL-atomic).
_ids = itertools.count(1)


class _Frame:
    """One open (not yet exited) traced span on the current thread."""

    __slots__ = ("id", "parent", "name", "attrs", "counters", "proxy")

    def __init__(self, id: int, parent: Optional[int], name: str, attrs: dict):
        self.id = id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, int] = {}
        self.proxy: Optional[_Frame] = None

    def folded(self) -> "_Frame":
        """The frame every span folded into this one pushes: its id and
        its counters are this frame's, its attributes a scratch dict, so a
        folded span's counts land here and its annotations nowhere."""
        proxy = self.proxy
        if proxy is None:
            proxy = self.proxy = _Frame(self.id, self.parent, self.name, {})
            proxy.counters = self.counters
        return proxy


def _collectors() -> List[CompileReport]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def _frames() -> List[_Frame]:
    frames = getattr(_state, "frames", None)
    if frames is None:
        frames = []
        _state.frames = frames
    return frames


def active() -> bool:
    """True when at least one collector is listening on this thread."""
    return bool(getattr(_state, "stack", None))


def tracing() -> bool:
    """True when at least one collector records span events on this thread."""
    stack = getattr(_state, "stack", None)
    return bool(stack) and any(r.record_events for r in stack)


@contextmanager
def collect(
    report: Optional[CompileReport] = None,
    trace: bool = False,
    max_events: Optional[int] = None,
) -> Iterator[CompileReport]:
    """Accumulate spans/counters from the enclosed code into a report.

    With ``trace=True`` the report also records hierarchical
    :class:`SpanEvent`\\ s (exportable via :mod:`repro.obs.export`).
    """
    if report is None:
        report = CompileReport(record_events=trace)
    elif trace:
        report.record_events = True
    if max_events is not None:
        report.max_events = max_events
    stack = _collectors()
    stack.append(report)
    try:
        yield report
    finally:
        stack.remove(report)


class _NullSpan:
    """Shared no-op context manager: the disabled-instrumentation path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """An active span: aggregates into every collector, and — when any
    collector is tracing — records a :class:`SpanEvent` with parent links,
    or, below the collectors' ``fold_depth``, folds into the span open at
    that depth."""

    __slots__ = ("name", "attrs", "t0", "frame", "fold")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.frame: Optional[_Frame] = None
        self.fold: Optional[_Frame] = None

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (traced spans only)."""
        if self.frame is not None:
            self.frame.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = getattr(_state, "stack", None)
        if stack:
            keep = -1
            for r in stack:
                if r.record_events and r.fold_depth > keep:
                    keep = r.fold_depth
            if keep >= 0:
                frames = _frames()
                if len(frames) <= keep:
                    parent = frames[-1].id if frames else None
                    self.frame = _Frame(next(_ids), parent, self.name, dict(self.attrs))
                    frames.append(self.frame)
                else:
                    self.fold = frames[keep].folded()
                    frames.append(self.fold)
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self.t0
        frame = self.frame or self.fold
        if frame is not None:
            frames = getattr(_state, "frames", None)
            if frames:
                if frames[-1] is frame:
                    frames.pop()
                else:  # unbalanced exit (generator teardown): best effort
                    try:
                        frames.remove(frame)
                    except ValueError:
                        pass
            if self.fold is not None:
                c = frame.counters
                calls, us = f"fold.{self.name}.calls", f"fold.{self.name}.us"
                c[calls] = c.get(calls, 0) + 1
                c[us] = c.get(us, 0) + round(elapsed * 1e6)
                frame = None
            elif exc_type is not None:
                frame.attrs.setdefault("error", exc_type.__name__)
        stack = getattr(_state, "stack", None)
        if stack:
            tid = threading.get_ident()
            for report in stack:
                report.add_span(self.name, elapsed)
                if report.record_events and frame is not None:
                    report.record_span(frame, self.t0, elapsed, tid)
        return False


def span(name: str, **attrs):
    """Time the enclosed block under ``name`` (no-op when not collecting).

    Keyword arguments become span attributes on the recorded event (ignored
    unless a tracing collector is active).  The returned object has an
    ``annotate(**attrs)`` method for attributes computed mid-block.
    """
    if not getattr(_state, "stack", None):
        return _NULL_SPAN
    return _Span(name, attrs)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on every active collector (no-op otherwise)."""
    stack = getattr(_state, "stack", None)
    if not stack:
        return
    for report in stack:
        report.add_count(name, n)
    frames = getattr(_state, "frames", None)
    if frames:
        c = frames[-1].counters
        c[name] = c.get(name, 0) + n


def observe(
    name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
) -> None:
    """Record ``value`` into histogram ``name`` on every active collector."""
    stack = getattr(_state, "stack", None)
    if not stack:
        return
    for report in stack:
        report.observe(name, value, buckets)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on every active collector (no-op otherwise)."""
    stack = getattr(_state, "stack", None)
    if not stack:
        return
    for report in stack:
        report.set_gauge(name, value)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open traced span, if any."""
    frames = getattr(_state, "frames", None)
    if frames:
        frames[-1].attrs.update(attrs)
