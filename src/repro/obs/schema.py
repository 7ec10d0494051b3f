"""Schema validation for exported traces (Chrome trace-event JSON, the
one trace file format), metric snapshots and the daemon's event log.

Hand-rolled (no jsonschema dependency) validators returning error lists,
plus a tiny CLI for CI smoke jobs::

    python -m repro.obs.schema chrome  trace.json
    python -m repro.obs.schema metrics snapshot.json
    python -m repro.obs.schema events  daemon-events.jsonl

Exit status 0 when the file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Mapping

from .metrics import SNAPSHOT_SCHEMA

_NUM = (int, float)


def validate_chrome_trace(obj: object) -> List[str]:
    """Errors in a Chrome trace-event JSON object (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(obj, Mapping):
        return ["top level is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    n_complete = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, Mapping):
            errors.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        if not isinstance(e.get("name"), str) or not e["name"]:
            errors.append(f"{where}: missing name")
        if not isinstance(e.get("pid"), int) or not isinstance(e.get("tid"), int):
            errors.append(f"{where}: pid/tid must be ints")
        if ph == "X":
            n_complete += 1
            for k in ("ts", "dur"):
                v = e.get(k)
                if not isinstance(v, _NUM) or isinstance(v, bool) or v < 0:
                    errors.append(f"{where}: bad {k} {v!r}")
            args = e.get("args", {})
            if not isinstance(args, Mapping):
                errors.append(f"{where}: args must be an object")
    if n_complete == 0:
        errors.append("no complete ('X') span events")
    return errors


def trace_nesting_depth(obj: Mapping) -> int:
    """Deepest span nesting in a Chrome trace, by containment per thread.

    Complete events carry no explicit parent links, so depth is inferred
    the way trace viewers render it: a span nests under any span of the
    same thread whose [ts, ts+dur) interval contains it.
    """
    by_tid: Dict[int, List[tuple]] = {}
    for e in obj.get("traceEvents", []):
        if isinstance(e, Mapping) and e.get("ph") == "X":
            by_tid.setdefault(e.get("tid", 0), []).append(
                (float(e["ts"]), float(e["ts"]) + float(e["dur"]))
            )
    depth = 0
    for spans in by_tid.values():
        spans.sort(key=lambda ab: (ab[0], -(ab[1] - ab[0])))
        open_stack: List[float] = []  # end times of enclosing spans
        for start, end in spans:
            while open_stack and start >= open_stack[-1]:
                open_stack.pop()
            open_stack.append(end)
            depth = max(depth, len(open_stack))
    return depth


def validate_metrics_snapshot(obj: object) -> List[str]:
    """Errors in a ``repro-metrics/1`` snapshot (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(obj, Mapping):
        return ["top level is not an object"]
    if obj.get("schema") != SNAPSHOT_SCHEMA:
        errors.append(f"schema is {obj.get('schema')!r}, expected {SNAPSHOT_SCHEMA!r}")
    for section, value_check in (
        ("counters", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        ("gauges", lambda v: isinstance(v, _NUM) and not isinstance(v, bool)),
    ):
        table = obj.get(section, {})
        if not isinstance(table, Mapping):
            errors.append(f"{section} is not an object")
            continue
        for k, v in table.items():
            if not isinstance(k, str):
                errors.append(f"{section}: non-string key {k!r}")
            if not value_check(v):
                errors.append(f"{section}[{k}]: bad value {v!r}")
    hists = obj.get("histograms", {})
    if not isinstance(hists, Mapping):
        errors.append("histograms is not an object")
        hists = {}
    for name, h in hists.items():
        where = f"histograms[{name}]"
        if not isinstance(h, Mapping):
            errors.append(f"{where}: not an object")
            continue
        bounds, counts = h.get("bounds"), h.get("counts")
        if not isinstance(bounds, list) or not bounds or bounds != sorted(bounds):
            errors.append(f"{where}: bounds must be a sorted non-empty array")
        elif not isinstance(counts, list) or len(counts) != len(bounds) + 1:
            errors.append(f"{where}: counts must have len(bounds)+1 entries")
        elif sum(int(c) for c in counts) != h.get("count"):
            errors.append(f"{where}: count does not equal the bucket sum")
    return errors


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2 or argv[0] not in ("chrome", "metrics", "events"):
        print(__doc__, file=sys.stderr)
        return 2
    kind, path = argv
    with open(path) as f:
        if kind == "events":
            from .events import validate_event_log

            errors = validate_event_log(f.read().splitlines())
        else:
            try:
                obj = json.load(f)
            except ValueError as exc:
                print(f"{path}: not JSON: {exc}", file=sys.stderr)
                return 1
            errors = (
                validate_chrome_trace(obj)
                if kind == "chrome"
                else validate_metrics_snapshot(obj)
            )
    if errors:
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        return 1
    extra = ""
    if kind == "chrome":
        extra = f" (nesting depth {trace_nesting_depth(obj)})"
    print(f"{path}: valid {kind}{extra}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
