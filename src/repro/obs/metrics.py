"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the *aggregation* side of the observability layer: spans
and counters stream into per-collection :class:`~repro.obs.trace.CompileReport`
objects (one per compile, one per batch worker), and a
:class:`MetricsRegistry` folds any number of reports — from this process,
from batch worker threads, or unpickled from worker processes — into one
coherent set of metrics with a stable JSON snapshot schema.

Snapshots are plain dicts (``schema`` ``repro-metrics/1``) so they can be
written next to benchmark results and diffed run-to-run (``repro stats
diff``).

This module is deliberately standalone: it imports nothing from the rest
of the package so the lowest layers can use it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Identifier of the snapshot layout produced by :meth:`MetricsRegistry.snapshot`.
SNAPSHOT_SCHEMA = "repro-metrics/1"

#: Default histogram bucket upper bounds (powers of two: dimension counts,
#: piece counts and footprint sizes are all small-integer distributions).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Histogram:
    """A fixed-bucket histogram (cumulative-style bounds, like Prometheus).

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last edge.  Bounds are fixed at construction so
    histograms from different workers merge exactly, bucket by bucket.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, edge in enumerate(self.bounds):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket counts.

        Linearly interpolates within the bucket that crosses the target
        rank (lower edge 0 for the first bucket, ``max`` as the upper
        edge of the overflow bucket) — the usual Prometheus-style
        estimate, good enough for p50/p99 dashboards.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        target = q * self.count
        cum = 0
        lo = 0.0
        for i, c in enumerate(self.counts):
            if i < len(self.bounds):
                hi = float(self.bounds[i])
            else:  # overflow bucket: cap at the observed max
                hi = float(self.max) if self.max is not None else lo
            if cum + c >= target and c:
                frac = (target - cum) / c
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                if self.min is not None:
                    value = max(value, float(self.min))
                if self.max is not None:
                    value = min(value, float(self.max))
                return value
            cum += c
            lo = hi
        return float(self.max) if self.max is not None else lo

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "Histogram":
        h = cls(tuple(d["bounds"]))
        counts = list(d["counts"])
        if len(counts) != len(h.counts):
            raise ValueError("histogram counts do not match bounds")
        h.counts = [int(c) for c in counts]
        h.count = int(d["count"])
        h.sum = float(d["sum"])
        h.min = d.get("min")
        h.max = d.get("max")
        return h

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram(count={self.count}, sum={self.sum:.4g})"


@dataclass
class MetricsRegistry:
    """Counters + gauges + histograms with snapshot/merge/diff.

    The registry itself is not thread-safe; the intended pattern is one
    :class:`~repro.obs.trace.CompileReport` per worker (collected on the
    worker's own thread) folded into a registry afterwards via
    :meth:`absorb_report`.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(buckets)
        h.observe(value)

    # -- aggregation -------------------------------------------------------

    def absorb_report(self, report) -> None:
        """Fold one :class:`~repro.obs.trace.CompileReport` into the registry.

        Span aggregates become ``span.<name>.seconds`` gauges (summed) and
        ``span.<name>.calls`` counters; counters, histograms and cache
        stats merge additively; report gauges overwrite (last wins).
        """
        for name, stat in report.spans.items():
            self.inc(f"span.{name}.calls", stat.calls)
            self.gauges[f"span.{name}.seconds"] = (
                self.gauges.get(f"span.{name}.seconds", 0.0) + stat.seconds
            )
        for name, n in report.counters.items():
            self.inc(name, n)
        for name, n in report.cache.items():
            self.inc(f"cache.{name}", n)
        for name, value in report.gauges.items():
            self.gauges[name] = value
        for name, h in report.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                clone = Histogram(h.bounds)
                clone.merge(h)
                self.histograms[name] = clone
            else:
                mine.merge(h)

    def merge_snapshot(self, snap: Mapping[str, object]) -> None:
        """Merge a :meth:`snapshot` dict (e.g. from a worker process)."""
        for name, n in snap.get("counters", {}).items():
            self.inc(name, int(n))
        for name, v in snap.get("gauges", {}).items():
            self.gauges[name] = float(v)
        for name, d in snap.get("histograms", {}).items():
            h = Histogram.from_dict(d)
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = h
            else:
                mine.merge(h)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A stable, JSON-serializable view of every metric."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict() for k in sorted(self.histograms)
            },
            "meta": dict(self.meta),
        }


@dataclass
class MetricDelta:
    """One metric's change between two snapshots."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def ratio(self) -> Optional[float]:
        if self.a is None or self.b is None or self.a == 0:
            return None
        return self.b / self.a


def diff_snapshots(
    a: Mapping[str, object], b: Mapping[str, object]
) -> List[MetricDelta]:
    """Run-to-run comparison of two metrics snapshots.

    Histograms are compared by their means (per-bucket drift rarely matters
    for regression tracking; the mean and count catch shape changes).
    """
    out: List[MetricDelta] = []
    for kind, key in (("counter", "counters"), ("gauge", "gauges")):
        av: Mapping[str, float] = a.get(key, {})
        bv: Mapping[str, float] = b.get(key, {})
        for name in sorted(set(av) | set(bv)):
            out.append(MetricDelta(kind, name, av.get(name), bv.get(name)))
    ah: Mapping[str, Mapping] = a.get("histograms", {})
    bh: Mapping[str, Mapping] = b.get("histograms", {})
    for name in sorted(set(ah) | set(bh)):
        mean_a = mean_b = None
        if name in ah and ah[name]["count"]:
            mean_a = ah[name]["sum"] / ah[name]["count"]
        if name in bh and bh[name]["count"]:
            mean_b = bh[name]["sum"] / bh[name]["count"]
        out.append(MetricDelta("histogram", f"{name}.mean", mean_a, mean_b))
    return out


def format_diff(
    deltas: Iterable[MetricDelta],
    only_changed: bool = True,
    indent: str = "  ",
) -> str:
    """Human-readable diff table (``repro stats diff``)."""
    rows: List[Tuple[str, str, str, str, str]] = []
    for d in deltas:
        if only_changed and d.a == d.b:
            continue
        fmt = (lambda v: "-" if v is None else
               (f"{v:.6g}" if isinstance(v, float) else str(v)))
        ratio = d.ratio
        rows.append(
            (
                d.name,
                fmt(d.a),
                fmt(d.b),
                "-" if d.delta is None else f"{d.delta:+.6g}",
                "-" if ratio is None else f"{ratio:.3f}x",
            )
        )
    if not rows:
        return "(no differences)"
    headers = ("metric", "a", "b", "delta", "ratio")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [indent + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append(
            indent + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)
