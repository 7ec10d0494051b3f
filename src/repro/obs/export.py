"""Trace exporters and the profile-tree view.

Turns a traced :class:`~repro.obs.trace.CompileReport` into:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — complete-event
  (``"ph": "X"``) records loadable in Perfetto / ``chrome://tracing``,
  the one trace file format;
* a **profile tree** (:func:`profile_tree` / :func:`format_profile`) —
  spans aggregated by call path with self/total time, the ``repro
  profile`` view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from .trace import CompileReport, SpanEvent

#: Schema tag of an exported trace.
TRACE_SCHEMA = "repro-trace/1"


def _entry_order(events: List[SpanEvent]) -> List[SpanEvent]:
    """Events sorted by span *entry* (reports append them in exit order),
    so parents precede their children in exported streams."""
    return sorted(events, key=lambda e: (e.start, -e.duration))


def plain_attrs(attrs: Mapping[str, object]) -> Dict[str, object]:
    """Span attributes scrubbed to JSON-primitive values."""
    return {
        k: v if isinstance(v, (int, float, bool, str, type(None))) else str(v)
        for k, v in attrs.items()
    }


def _args(event: SpanEvent) -> Dict[str, object]:
    args = plain_attrs(event.attrs)
    for k, v in event.counters.items():
        args[f"counter.{k}"] = v
    return args


def chrome_lane(
    pid: int,
    name: str,
    events: Iterable[SpanEvent],
    offset: float = 0.0,
    trace_id: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One process lane of Chrome trace events: its ``process_name``
    record, then one complete (``"ph": "X"``) event per span, in the order
    given.  ``offset`` (seconds) moves the lane on a shared timeline; a
    ``trace_id`` lands in every span's args."""
    lane: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": name}}
    ]
    for e in events:
        args = _args(e)
        if trace_id is not None:
            args["trace_id"] = trace_id
        lane.append(
            {
                "name": e.name,
                "cat": "compile",
                "ph": "X",
                "ts": max(0.0, offset + e.start) * 1e6,  # microseconds
                "dur": e.duration * 1e6,
                "pid": pid,
                "tid": e.tid,
                "args": args,
            }
        )
    return lane


def chrome_trace(report: CompileReport, pid: int = 1) -> Dict[str, object]:
    """The report's events as a Chrome trace-event JSON object."""
    return {
        "traceEvents": chrome_lane(pid, "repro compile", _entry_order(report.events)),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "spans": len(report.events),
            "dropped_events": report.dropped_events,
        },
    }


def write_trace(report: CompileReport, path: str) -> None:
    """Serialize the report's trace to ``path`` as Chrome trace-event JSON."""
    with open(path, "w") as f:
        json.dump(chrome_trace(report), f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# profile tree


@dataclass
class ProfileNode:
    """Spans aggregated by call path: one node per (path, name)."""

    name: str
    calls: int = 0
    total: float = 0.0  # inclusive seconds
    counters: Dict[str, int] = field(default_factory=dict)
    children: Dict[str, "ProfileNode"] = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.total - sum(c.total for c in self.children.values()))


def profile_tree(report: CompileReport) -> List[ProfileNode]:
    """Aggregate the report's events into per-path profile roots.

    Events sharing a (parent path, name) merge into one node, so a span
    entered 99 times under the same parent renders as one line with
    ``calls=99`` — the ``repro profile`` view.
    """
    by_id: Dict[int, SpanEvent] = {e.id: e for e in report.events}
    roots: Dict[str, ProfileNode] = {}
    node_of: Dict[int, ProfileNode] = {}

    def _node_for(event: SpanEvent) -> ProfileNode:
        cached = node_of.get(event.id)
        if cached is not None:
            return cached
        parent = by_id.get(event.parent) if event.parent is not None else None
        if parent is None:
            table = roots
        else:
            table = _node_for(parent).children
        node = table.get(event.name)
        if node is None:
            node = table[event.name] = ProfileNode(event.name)
        node_of[event.id] = node
        return node

    # Sort parents-first so recursion depth stays shallow, then fold in.
    for e in sorted(report.events, key=lambda e: (e.start, -e.duration)):
        node = _node_for(e)
        node.calls += 1
        node.total += e.duration
        for k, v in e.counters.items():
            node.counters[k] = node.counters.get(k, 0) + v
    return sorted(roots.values(), key=lambda n: -n.total)


def format_profile(
    roots: List[ProfileNode],
    top: int = 8,
    max_depth: int = 6,
    wall_seconds: Optional[float] = None,
    indent: str = "  ",
) -> str:
    """Render the profile tree: total/self milliseconds, calls, name.

    ``top`` bounds the children shown per level (the rest fold into an
    ``(… k more)`` line so totals stay honest); ``wall_seconds`` appends a
    coverage line comparing the root total against wall-clock.
    """
    lines: List[str] = []
    total_all = sum(r.total for r in roots)
    header = f"{'total ms':>10}  {'self ms':>10}  {'calls':>7}  span"
    lines.append(header)
    lines.append("-" * len(header))

    def _emit(node: ProfileNode, depth: int) -> None:
        lines.append(
            f"{node.total * 1e3:10.2f}  {node.self_seconds * 1e3:10.2f}  "
            f"{node.calls:7d}  {indent * depth}{node.name}"
        )
        if depth + 1 >= max_depth:
            return
        children = sorted(node.children.values(), key=lambda n: -n.total)
        for child in children[:top]:
            _emit(child, depth + 1)
        hidden = children[top:]
        if hidden:
            t = sum(c.total for c in hidden)
            lines.append(
                f"{t * 1e3:10.2f}  {'':>10}  {sum(c.calls for c in hidden):7d}  "
                f"{indent * (depth + 1)}(… {len(hidden)} more)"
            )

    for root in roots[:top]:
        _emit(root, 0)
    if wall_seconds:
        cov = 100.0 * total_all / wall_seconds if wall_seconds > 0 else 0.0
        lines.append(
            f"span total {total_all * 1e3:.2f} ms over wall-clock "
            f"{wall_seconds * 1e3:.2f} ms ({cov:.1f}% covered)"
        )
    return "\n".join(lines)
