"""``repro.obs`` — the observability subsystem, and the one module every
layer instruments itself through (``obs.span`` / ``obs.count`` / ...):

* :mod:`trace` — hierarchical spans with parent/child links and
  attributes, counters, gauges, histograms, per-compile
  :class:`CompileReport` objects;
* :mod:`metrics` — the process-level :class:`MetricsRegistry` with a
  stable JSON snapshot schema, merge and run-to-run diff;
* :mod:`export` — the Chrome trace-event JSON exporter and the
  profile-tree view;
* :mod:`schema` — validators for every exported artifact (used by the CI
  ``serve-smoke`` job), imported from :mod:`repro.obs.schema` itself, so
  that ``python -m repro.obs.schema`` runs a module no import has loaded;
* :mod:`distributed` — the one cross-process trace: a daemon request's
  spans handed back to the client that asked, stitched with its own;
* :mod:`events` — the daemon's bounded lifecycle event log, the one
  ``repro-events/1`` (:data:`JSONL_SCHEMA`) file.

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
    gauge,
    observe,
    span,
    tracing,
)
from .export import (
    TRACE_SCHEMA,
    ProfileNode,
    chrome_trace,
    format_profile,
    profile_tree,
    write_trace,
)
from .events import JSONL_SCHEMA, EventLog, validate_event_log

__all__ = [
    "DEFAULT_BUCKETS",
    "MAX_EVENTS",
    "SNAPSHOT_SCHEMA",
    "TRACE_SCHEMA",
    "JSONL_SCHEMA",
    "CompileReport",
    "EventLog",
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
    "diff_snapshots",
    "format_diff",
    "format_profile",
    "gauge",
    "observe",
    "profile_tree",
    "span",
    "tracing",
    "validate_event_log",
    "write_trace",
]
