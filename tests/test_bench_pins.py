"""The benchmark's defect pins, at their value on this commit.

``bench/tests/test_bench.py::test_no_failures_and_the_documented_defects``
asserts three things of one traced ``bench/run.py --quick`` pass: no
workload records a failure, the hot daemon compiles nothing, and the
emitted C of covariance and conv_bn is wrong (``codegen.check_failures ==
2``, the seed's two known C-backend defects).  Both defects are fixed, and
the change that fixed them claimed a gain on the benchmark, so it could not
edit ``bench/``: that test now fails on its last line only.  Until a
benchmark-only change re-pins it, this test keeps the other two assertions
alive and holds the count at 0.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.codegen.cbackend import compiler_available

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
@pytest.mark.skipif(not compiler_available(), reason="emitted_c needs a C compiler")
def test_quick_pass_has_no_failures_and_no_c_defects(tmp_path):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--quick", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    by_name = {r["outcome"]["workload"]: r["outcome"] for r in json.load(open(out))["runs"]}
    assert set(by_name) == {"cold_compile", "tune_sweep", "serve_hot", "emitted_c"}
    assert all(o["failures"] == [] for o in by_name.values())
    assert by_name["serve_hot"]["per_layer"]["serve.compiles"] == 0
    assert by_name["emitted_c"]["per_layer"]["codegen.check_failures"] == 0
