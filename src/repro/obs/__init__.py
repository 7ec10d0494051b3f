"""``repro.obs`` — the observability subsystem, and the one module every
layer instruments itself through (``obs.span`` / ``obs.count`` / ...):

* :mod:`trace` — hierarchical spans with parent/child links and
  attributes, counters, gauges, histograms, per-compile
  :class:`CompileReport` objects and cross-worker merging;
* :mod:`metrics` — the process-level :class:`MetricsRegistry` with a
  stable JSON snapshot schema, merge and run-to-run diff;
* :mod:`export` — Chrome trace-event JSON / JSONL exporters and the
  profile-tree view;
* :mod:`schema` — validators for every exported artifact (used by the CI
  ``trace-smoke`` job).

Only the stdlib is imported here, so the lowest layers of the package
(``repro.presburger``) instrument themselves without import cycles.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricDelta,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    diff_snapshots,
    format_diff,
)
from .trace import (
    MAX_EVENTS,
    CompileReport,
    SpanEvent,
    SpanStat,
    active,
    annotate,
    collect,
    count,
    current_span_id,
    gauge,
    merge_report,
    observe,
    span,
    tracing,
)
from .export import (
    JSONL_SCHEMA,
    TRACE_SCHEMA,
    ProfileNode,
    chrome_trace,
    format_profile,
    jsonl_lines,
    profile_tree,
    write_trace,
)
from .schema import (
    trace_nesting_depth,
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics_snapshot,
)
from .distributed import (
    HEADER,
    TraceContext,
    critical_path,
    current_context,
    new_context,
    report_to_wire,
    stitch,
    stitch_event_logs,
    stream_from_report,
    use_context,
    validate_trace_field,
    wire_to_events,
)
from .events import EventLog, SampleRing, validate_event_log

__all__ = [
    "DEFAULT_BUCKETS",
    "HEADER",
    "MAX_EVENTS",
    "SNAPSHOT_SCHEMA",
    "TRACE_SCHEMA",
    "JSONL_SCHEMA",
    "CompileReport",
    "EventLog",
    "SampleRing",
    "TraceContext",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "ProfileNode",
    "SpanEvent",
    "SpanStat",
    "active",
    "annotate",
    "chrome_trace",
    "collect",
    "count",
    "critical_path",
    "current_context",
    "current_span_id",
    "diff_snapshots",
    "format_diff",
    "format_profile",
    "gauge",
    "jsonl_lines",
    "merge_report",
    "new_context",
    "observe",
    "profile_tree",
    "report_to_wire",
    "span",
    "stitch",
    "stitch_event_logs",
    "stream_from_report",
    "trace_nesting_depth",
    "tracing",
    "use_context",
    "validate_chrome_trace",
    "validate_event_log",
    "validate_jsonl",
    "validate_metrics_snapshot",
    "validate_trace_field",
    "wire_to_events",
    "write_trace",
]
