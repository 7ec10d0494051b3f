"""The observability subsystem: tracing, metrics, exporters, validators."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import CompileOptions
from repro import obs
from repro.obs import (
    CompileReport,
    Histogram,
    MetricsRegistry,
    chrome_trace,
    collect,
    diff_snapshots,
    format_diff,
    format_profile,
    profile_tree,
    write_trace,
)
from repro.obs.schema import (
    trace_nesting_depth,
    validate_chrome_trace,
    validate_metrics_snapshot,
)


class TestSpans:
    def test_noop_without_collector(self):
        # Must not raise, must not record anywhere.
        with obs.span("orphan"):
            obs.count("orphan.events")
            obs.observe("orphan.hist", 1)
            obs.gauge("orphan.gauge", 2.0)
        assert not obs.active()
        assert not obs.tracing()

    def test_nested_collect_blocks(self):
        with collect() as outer:
            with obs.span("a"):
                pass
            with collect() as inner:
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        # Inner sees only what ran inside it; outer sees everything.
        assert set(inner.spans) == {"b"}
        assert set(outer.spans) == {"a", "b", "c"}

    def test_exception_in_span_still_records(self):
        with collect(trace=True) as report:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    time.sleep(0.01)
                    raise ValueError("boom")
        assert report.spans["doomed"].calls == 1
        assert report.spans["doomed"].seconds >= 0.01
        (event,) = report.events
        assert event.attrs["error"] == "ValueError"
        assert event.duration >= 0.01

    def test_parent_child_links(self):
        with collect(trace=True) as report:
            with obs.span("parent"):
                with obs.span("child"):
                    with obs.span("grandchild"):
                        pass
                with obs.span("child2"):
                    pass
        by_name = {e.name: e for e in report.events}
        assert by_name["parent"].parent is None
        assert by_name["child"].parent == by_name["parent"].id
        assert by_name["grandchild"].parent == by_name["child"].id
        assert by_name["child2"].parent == by_name["parent"].id

    def test_span_attrs_and_annotate(self):
        with collect(trace=True) as report:
            with obs.span("pass", phase=1) as sp:
                sp.annotate(pieces=7)
                obs.annotate(late=True)
        (event,) = report.events
        assert event.attrs == {"phase": 1, "pieces": 7, "late": True}

    def test_per_span_counter_deltas(self):
        with collect(trace=True) as report:
            with obs.span("outer"):
                obs.count("hits", 2)
                with obs.span("inner"):
                    obs.count("hits", 5)
        by_name = {e.name: e for e in report.events}
        # Deltas attribute to the innermost open span only.
        assert by_name["inner"].counters == {"hits": 5}
        assert by_name["outer"].counters == {"hits": 2}
        assert report.counters["hits"] == 7

    def test_thread_isolation(self):
        seen = {}

        def worker():
            with collect() as r:
                with obs.span("worker_span"):
                    pass
            seen["worker"] = set(r.spans)

        with collect() as main_report:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            with obs.span("main_span"):
                pass
        assert seen["worker"] == {"worker_span"}
        assert set(main_report.spans) == {"main_span"}

    def test_event_cap_increments_dropped(self):
        with collect(trace=True, max_events=3) as report:
            for _ in range(5):
                with obs.span("s"):
                    pass
        assert len(report.events) == 3
        assert report.dropped_events == 2
        assert report.spans["s"].calls == 5  # aggregates are uncapped


class TestHistogram:
    def test_bucketing(self):
        h = Histogram((1, 2, 4))
        for v in (0, 1, 2, 3, 5, 100):
            h.observe(v)
        assert h.count == 6
        d = h.as_dict()
        assert d["bounds"] == [1, 2, 4]
        # <=1: {0,1}; <=2: {2}; <=4: {3}; overflow: {5,100}
        assert d["counts"] == [2, 1, 1, 2]
        assert h.min == 0 and h.max == 100

    def test_merge_requires_same_bounds(self):
        a, b = Histogram((1, 2)), Histogram((1, 2))
        a.observe(1)
        b.observe(5)
        a.merge(b)
        assert a.count == 2
        with pytest.raises(ValueError):
            a.merge(Histogram((1, 3)))

    def test_roundtrip(self):
        h = Histogram((1, 2))
        h.observe(2)
        again = Histogram.from_dict(h.as_dict())
        assert again.as_dict() == h.as_dict()


class TestMetrics:
    def _snapshot(self, value=1.0):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", value)
        reg.observe("h", 3)
        return reg.snapshot()

    def test_snapshot_validates(self):
        snap = self._snapshot()
        assert validate_metrics_snapshot(snap) == []
        # JSON round-trip keeps it valid (schema is what's on disk).
        assert validate_metrics_snapshot(json.loads(json.dumps(snap))) == []

    def test_absorb_report(self):
        report = CompileReport()
        report.add_span("pass_a", 0.5)
        report.add_span("pass_a", 0.25)
        report.add_count("memo.hit", 3)
        reg = MetricsRegistry()
        reg.absorb_report(report)
        snap = reg.snapshot()
        assert snap["counters"]["span.pass_a.calls"] == 2
        assert snap["gauges"]["span.pass_a.seconds"] == pytest.approx(0.75)
        assert snap["counters"]["memo.hit"] == 3

    def test_diff_and_format(self):
        a, b = self._snapshot(1.0), self._snapshot(2.0)
        deltas = {d.name: d for d in diff_snapshots(a, b)}
        assert deltas["g"].delta == pytest.approx(1.0)
        assert deltas["g"].ratio == pytest.approx(2.0)
        text = format_diff(diff_snapshots(a, b))
        assert "g" in text

    def test_bad_snapshots_rejected(self):
        assert validate_metrics_snapshot([]) != []
        assert validate_metrics_snapshot({"schema": "nope/9"}) != []
        bad_hist = self._snapshot()
        bad_hist["histograms"]["h"]["counts"] = [1]
        assert validate_metrics_snapshot(bad_hist) != []

    def test_the_schema_module_checks_a_file_without_a_warning(self, tmp_path):
        # ``python -m repro.obs.schema`` is what CI runs on every artifact;
        # a package import that loads the module first makes runpy warn.
        path = tmp_path / "m.json"
        path.write_text(json.dumps(self._snapshot()))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.obs.schema", "metrics", str(path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestExport:
    def _traced_report(self):
        with collect(trace=True) as report:
            with obs.span("root", workload="t"):
                obs.count("k", 2)
                with obs.span("leaf"):
                    pass
        return report

    def test_chrome_trace_valid(self, tmp_path):
        report = self._traced_report()
        obj = chrome_trace(report)
        assert validate_chrome_trace(obj) == []
        assert trace_nesting_depth(obj) == 2
        path = tmp_path / "t.json"
        write_trace(report, str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_chrome_trace_parent_entry_order(self):
        obj = chrome_trace(self._traced_report())
        names = [e["name"] for e in obj["traceEvents"] if e["ph"] == "X"]
        assert names.index("root") < names.index("leaf")

    def test_profile_tree_math(self):
        with collect(trace=True) as report:
            with obs.span("root"):
                for _ in range(3):
                    with obs.span("leaf"):
                        obs.count("k")
        (root,) = profile_tree(report)
        assert root.name == "root" and root.calls == 1
        leaf = root.children["leaf"]
        assert leaf.calls == 3
        assert leaf.counters == {"k": 3}
        assert root.total == pytest.approx(
            leaf.total + root.self_seconds, abs=1e-9
        )
        text = format_profile([root], wall_seconds=root.total)
        assert "root" in text and "leaf" in text and "covered" in text


class TestPipelineTrace:
    def test_real_compile_trace_depth(self):
        from repro.core import optimize
        from repro.pipelines import IMAGE_PIPELINES

        prog = IMAGE_PIPELINES["harris"].build(128)
        with collect(trace=True) as report:
            optimize(prog, CompileOptions(tile_sizes=(32, 32)))
        obj = chrome_trace(report)
        assert validate_chrome_trace(obj) == []
        assert trace_nesting_depth(obj) >= 4
        names = {e.name for e in report.events}
        # Every pipeline stage shows up in the trace.
        assert {"optimize", "scheduler", "tile_shapes", "footprint"} <= names

class TestPackage:
    def test_instrument_shim_is_gone(self):
        import repro.service

        with pytest.raises(ImportError):
            importlib.import_module("repro.service.instrument")
        assert not hasattr(repro.service, "instrument")

    def test_all_exports_resolve(self):
        for name in obs.__all__:
            assert getattr(obs, name) is not None
