"""End-to-end coverage of the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "harris" in out
    assert "atax" in out
    assert "conv2d" in out


def test_optimize(cache_dir, capsys):
    rc = main(["optimize", "conv2d", "--size", "32", "--tile", "8", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "workload:     conv2d" in out
    assert "tile sizes (8, 8)" in out
    assert "compile time:" in out
    assert "fusion:" in out


def test_optimize_stats_prints_passes_and_cache(cache_dir, capsys):
    args = ["optimize", "conv2d", "--size", "32", "--tile", "8", "8", "--stats"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "per-pass timings:" in out
    assert "tile_shapes" in out
    assert "misses" in out  # cache stats from the cold compile

    # The second identical run is served from the on-disk cache.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "(served from cache)" in out
    assert "hits" in out


def test_optimize_no_cache_leaves_cache_dir_empty(cache_dir, capsys):
    args = [
        "optimize", "conv2d", "--size", "32", "--tile", "8", "8", "--no-cache",
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert not any(cache_dir.iterdir())


def test_optimize_tree(cache_dir, capsys):
    rc = main(
        ["optimize", "conv2d", "--size", "32", "--tile", "8", "8", "--tree"]
    )
    assert rc == 0
    assert "domain" in capsys.readouterr().out


def test_optimize_unknown_workload():
    with pytest.raises(SystemExit):
        main(["optimize", "definitely_not_a_workload"])


def test_code_openmp(cache_dir, capsys):
    rc = main(["code", "conv2d", "--size", "32", "--tile", "8", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "for " in out
    assert "omp" in out.lower()


@pytest.mark.parametrize(
    "target,header",
    [("cpu", "conv2d on modeled cpu (32 threads):"), ("gpu", "conv2d on modeled gpu:")],
)
def test_time_prints_header_for_every_target(target, header, capsys):
    rc = main(["time", "conv2d", "--size", "32", "--tile", "8", "8", "--target", target])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert lines[1].split()[0] == "ours"


def test_time_prints_every_strategy_and_failed_where_a_scheduler_refuses(capsys):
    assert main(["time", "covariance", "--size", "32"]) == 0
    rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert list(rows) == ["ours", "naive", "minfuse", "smartfuse", "maxfuse", "hybridfuse"]
    assert rows["hybridfuse"] == "failed"
    assert all(text.endswith(" ms") for name, text in rows.items() if name != "hybridfuse")


def test_tune(cache_dir, capsys):
    rc = main(["tune", "conv2d", "--size", "32", "--candidates", "8", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best tile sizes:" in out
    assert "searched" in out


def test_cache_info_and_clear(cache_dir, capsys):
    assert main(["optimize", "conv2d", "--size", "32", "--tile", "8", "8"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert str(cache_dir) in out
    assert "disk entries:   1" in out
    assert "memo snapshots: 1" in out  # the compile spilled its memos
    # Selective clear: drop the memo snapshots, keep the result.
    assert main(["cache", "clear", "--what", "memos"]) == 0
    assert "removed 1 memos entries" in capsys.readouterr().out
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "disk entries:   1" in out
    assert "memo snapshots: 0" in out
    # A dry-run GC over budget names what it would drop and drops nothing.
    assert main(["cache", "gc", "--dry-run", "--max-bytes", "1"]) == 0
    out = capsys.readouterr().out
    assert "would remove 1 entries" in out
    assert main(["cache", "info"]) == 0
    assert "disk entries:   1" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert main(["cache", "info"]) == 0
    assert "disk entries:   0" in capsys.readouterr().out


def test_module_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "image pipelines:" in proc.stdout


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "unsharp_mask" in out
        assert "equake" in out

    def test_optimize_conv2d(self, capsys):
        assert main(["optimize", "conv2d", "--size", "16", "--tile", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert "fusion:" in out
        assert "S0" in out

    def test_code_openmp(self, capsys):
        assert main(["code", "conv2d", "--size", "16", "--tile", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp parallel for" in out

    def test_code_cuda(self, capsys):
        assert main(
            ["code", "conv2d", "--size", "16", "--tile", "4", "4", "--target", "gpu"]
        ) == 0
        out = capsys.readouterr().out
        assert "__syncthreads();" in out

    def test_time_table(self, capsys):
        assert main(["time", "2mm", "--size", "64", "--tile", "8", "8"]) == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "smartfuse" in out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["optimize", "nonsense"])
