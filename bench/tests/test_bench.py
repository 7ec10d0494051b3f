"""Tests of the benchmark itself.  Not in the tier-1 ``testpaths``:

    python -m pytest bench/tests -q
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import cold_compile, tune_sweep  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def manifest():
    return bench_run.load_manifest()


def quick_pass(tmp_path_factory, trace):
    """``run.py --quick`` over all four workloads; (seconds, runs, spans)."""
    tmp = tmp_path_factory.mktemp(f"quick{trace}")
    out, spans = tmp / "out.json", tmp / "spans.jsonl"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick",
         "--trace", str(trace), "--out", str(out), "--spans", str(spans)],
        capture_output=True, text=True, cwd=str(tmp),
    )
    seconds = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    printed = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    recorded = [json.loads(l) for l in open(spans)] if spans.exists() else []
    return seconds, json.load(open(out))["runs"], printed, recorded


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return quick_pass(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return quick_pass(tmp_path_factory, 1)


def test_quick_pass_runs_all_four_workloads_in_a_minute(untraced, manifest):
    seconds, runs, printed, _ = untraced
    assert seconds < 60
    assert [r["outcome"]["workload"] for r in runs] == [w["name"] for w in manifest["workloads"]]
    for result in printed:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1


def test_printed_names_are_the_manifest_names(untraced, traced, manifest):
    end_to_end = [m["name"] for m in manifest["end_to_end"]]
    per_layer = [m["name"] for m in manifest["per_layer"]]
    assert all(NAME.fullmatch(n) for n in end_to_end + per_layer)
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    for result in untraced[2]:
        assert list(result["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for result in traced[2]:
        assert list(result["metrics"]) == per_layer
    # Every per-layer name is measured by some workload, not only zero-filled.
    measured = set().union(*(r["outcome"]["per_layer"] for r in traced[1]))
    assert measured == set(per_layer)


def test_no_failures_and_the_documented_defects(traced):
    by_name = {r["outcome"]["workload"]: r["outcome"] for r in traced[1]}
    assert all(o["failures"] == [] for o in by_name.values())
    assert by_name["serve_hot"]["per_layer"]["serve.compiles"] == 0
    assert by_name["emitted_c"]["per_layer"]["codegen.check_failures"] == 2


def test_layers_and_unattributed_sum_to_the_op_total(traced):
    _, runs, _, spans = traced
    for workload, root, layers, ops_per_round in (
        ("cold_compile", "cold.op", cold_compile.LAYERS, len(cold_compile.PROGRAMS)),
        ("tune_sweep", "sweep.op", tune_sweep.LAYERS, 2 * len(tune_sweep.PROGRAMS)),
    ):
        per_layer = next(
            r["outcome"]["per_layer"] for r in runs if r["outcome"]["workload"] == workload
        )
        roots = [s for s in spans if s["workload"] == workload and s["name"] == root]
        traced_rounds = len(roots) / ops_per_round
        op_total = sum(s["end"] - s["start"] for s in roots) / traced_rounds
        assert sum(per_layer[m] for m in layers.values()) == pytest.approx(op_total, rel=0.01)
    serve = next(r["outcome"]["per_layer"] for r in runs if r["outcome"]["workload"] == "serve_hot")
    parts = ("workloads.build_ms", "service.fingerprint_ms", "service.mem_get_ms",
             "serve.protocol_ms", "serve.wire_unattributed_ms")
    assert sum(serve[p] for p in parts) == pytest.approx(serve["serve.roundtrip_ms"], rel=0.01)


def test_staged_pipeline_prints_the_code_optimize_prints():
    rec = Recorder()
    for name, size in cold_compile.PROGRAMS:
        _, plain = cold_compile.compile_plain(name, size)
        staged = cold_compile.compile_staged(name, size, rec)
        assert cold_compile.code_hash(staged) == cold_compile.code_hash(plain), name


def test_replayed_sweep_picks_what_autotune_picks(tmp_path):
    program = tune_sweep.build_programs()["conv2d"]
    result, cache = tune_sweep.sweep(program, str(tmp_path / "a"))
    cache.close()
    rec = Recorder()
    cold = tune_sweep.replay(program, str(tmp_path / "b"), "cold", rec)
    warm = tune_sweep.replay(program, str(tmp_path / "b"), "diskwarm", rec)
    assert cold == warm == (result.best_sizes, result.best_time)
    names = [s["name"] for s in rec.spans]
    assert names.count("sweep.compile") == names.count("service.disk_get") == 25
    # The replay addresses the cache by the fingerprints the real sweep wrote.
    assert tune_sweep.replay(program, str(tmp_path / "a"), "diskwarm", Recorder())[0] == cold[0]


def test_self_time_is_duration_minus_children():
    rec = Recorder()
    op = rec.begin("op", 0.0, op="a")
    first = rec.begin("layer", 1.0)
    inner = rec.begin("inner", 2.0)
    rec.end(inner, 4.0)
    rec.end(first, 5.0)
    second = rec.begin("layer", 6.0)
    rec.end(second, 9.0)
    rec.end(op, 10.0)
    assert rec.self_times() == {"op": 3.0, "layer": 5.0, "inner": 2.0}
    assert sum(rec.self_times().values()) == 10.0
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0]
    assert {s["op"] for s in rec.spans} == {"a"}
    with pytest.raises(ValueError):
        rec.end(op, 11.0)
    assert Recorder(enabled=False).span("x").__enter__() is None


def test_timings_are_scaled_by_the_calibration_around_them():
    nominal = harness.NOMINAL_CALIBRATION_S

    def round_of(ops, samples, traced=False):
        out = harness.Round(traced=traced)
        out.tick(samples[0])
        for (name, primary, reference), sample in zip(ops, samples[1:]):
            out.primary.append((name, primary))
            out.reference.append((name, reference))
            out.tick(sample)
        return out

    quiet = round_of([("a", 1.0, 0.5), ("b", 4.0, 0.5)], [nominal] * 3)
    # The host slows to half speed, then to a quarter, while this round runs.
    slow = round_of([("a", 2.0, 1.0), ("b", 12.0, 1.5)], [nominal, 3 * nominal, 3 * nominal])
    traced = round_of([("a", 99.0, 99.0)], [nominal] * 2, traced=True)
    setup = [(3.0, nominal), (6.0, 2 * nominal), (50.0, 10 * nominal)]
    metrics, clock, counts = harness.end_to_end([quiet, slow, traced], setup, 12.5)
    assert metrics == pytest.approx({"suite_s": 5.0, "ref_suite_s": 1.0, "geomean_ms": 2000.0,
                                     "ref_geomean_ms": 500.0, "setup_s": 3.0, "peak_rss_mb": 12.5})
    assert clock["suite_s"] == 9.5 and clock["setup_s"] == 6.0
    with pytest.raises(ValueError):
        harness.Round(primary=[("a", 1.0)]).scales()
    assert counts == {"suite_s": 2, "ref_suite_s": 2, "geomean_ms": 2, "ref_geomean_ms": 2,
                      "setup_s": 3}
    assert 0.001 < harness.calibrate() < 1.0


def test_worker_environment_is_isolated(tmp_path, monkeypatch):
    for name in ("REPRO_TRACE", "REPRO_DATASET", "REPRO_AUTOTUNE_MODEL", "REPRO_PARAMETRIC_FP",
                 "REPRO_MEMO_SPILL", "REPRO_CACHE_REMOTE", "REPRO_CACHE_DIR"):
        monkeypatch.setenv(name, "/somewhere/else")
    env = bench_run.isolated_env(str(tmp_path))
    assert {k for k in env if k.startswith("REPRO_")} == {"REPRO_CACHE_DIR"}
    for key in ("REPRO_CACHE_DIR", "HOME", "TMPDIR"):
        assert env[key].startswith(str(tmp_path))
    assert (env["PYTHONHASHSEED"], env["OMP_NUM_THREADS"]) == ("0", "1")


def processes_under(directory):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.readlink(f"/proc/{pid}/cwd").startswith(directory):
                found.append(int(pid))
        except OSError:
            pass
    return found


def test_a_failed_run_leaves_no_daemon_and_no_scratch(monkeypatch):
    before = set(os.listdir(bench_run.WORK)) if os.path.isdir(bench_run.WORK) else set()
    monkeypatch.setattr(bench_run, "WORKER_TIMEOUT_S", 4)  # mid-fill: the daemon is up
    with pytest.raises(subprocess.TimeoutExpired):
        bench_run.run_workload("serve_hot", 0, 1.0, 0)
    deadline = time.monotonic() + 5
    while processes_under(bench_run.WORK) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert processes_under(bench_run.WORK) == []
    assert set(os.listdir(bench_run.WORK)) == before
