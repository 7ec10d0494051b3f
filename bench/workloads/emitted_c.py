"""Workload ``emitted_c``: schedule quality as real run time.

The primary operation is one execution of the gcc-built executable that
``codegen.cbackend`` emits for a program's *fused* tree
(``optimize().tree``); the reference operation is one execution of the
executable for the *original-order* tree (``schedule.initial_tree``) of
the same program.  Both are timed from outside: process start, tensor
read, kernel, live-out write.  codegen.cbackend and the optimizer's
decisions do the work; compile speed and the service half do none.
Serial build (``openmp=False``): two shared cores cannot time OpenMP
repeatably.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.api import CompileOptions, default_tile_sizes, get_workload, optimize
from repro.codegen.cbackend import CBackendError, compile_and_run, generate_c
from repro.codegen.interp import execute_naive, make_store
from repro.machine import analyze_optimized, cpu_time
from repro.presburger import memo
from repro.schedule import initial_tree

import harness
from spans import Recorder

#: Stencil pipelines, a rank-1 update, two contractions and the sparse
#: kernel, sized so one execution takes 15-90 ms.
PROGRAMS: List[Tuple[str, int]] = [
    ("conv2d", 1024),
    ("unsharp_mask", 1024),
    ("harris", 1024),
    ("bilateral_grid", 1024),
    ("gemver", 1024),
    ("2mm", 256),
    ("3mm", 192),
    ("equake", 200000),
]

#: Size at which each timed program's fused C is compared with the
#: interpreter's ``execute_naive``, the independent oracle.
CHECK_SIZES: Dict[str, int] = {
    "conv2d": 48, "unsharp_mask": 32, "harris": 32, "bilateral_grid": 32,
    "gemver": 48, "2mm": 24, "3mm": 16, "equake": 500,
}

#: Programs whose emitted C is wrong at the seed commit.  They are checked
#: on every run and never timed; how many still fail is a per-layer count
#: (``codegen.check_failures``), not a failed operation.
KNOWN_DEFECTS: Dict[str, int] = {"covariance": 48, "conv_bn": 32}

RTOL = 1e-12  # the tests' tolerance for C against the interpreter

WARMUP_ROUNDS = 2
SETUP_REPEATS = 3
VARIANTS = ("fused", "initial")


def trees_of(name: str, size: int):
    program = get_workload(name, size)
    result = optimize(program, CompileOptions(tile_sizes=default_tile_sizes(name)))
    return program, result, {"fused": result.tree, "initial": initial_tree(program)}


def same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return all(np.allclose(a[t], b[t], rtol=RTOL, atol=0.0) for t in a)


def check_against_interpreter(name: str, size: int, workdir: str) -> str:
    """Fused C at ``size`` against ``execute_naive``; '' when they agree."""
    program, _, trees = trees_of(name, size)
    reference = make_store(program)
    execute_naive(program, reference)
    try:
        out = compile_and_run(
            trees["fused"], program, make_store(program), keep_dir=workdir, openmp=False
        )
    except CBackendError as exc:
        error = next((l for l in str(exc).splitlines() if "error" in l), str(exc))
        return f"{name}@{size}: {error.replace(workdir + os.sep, '').strip()[:160]}"
    worst = max(float(np.max(np.abs(out[t] - reference[t]))) for t in program.liveout)
    if not same(out, {t: reference[t] for t in program.liveout}):
        return f"{name}@{size}: fused C differs from execute_naive, max abs error {worst:.3g}"
    return ""


def build_all(build_dir: str, rec: Recorder, failures: List[str]):
    """The set-up: optimize, emit and gcc-build both variants of every
    program, run each once, and compare fused with original-order output."""
    exes: Dict[Tuple[str, str], str] = {}
    first_outputs: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}
    results = {}
    for name, size in PROGRAMS:
        with rec.span("core.optimize"):
            program, results[name], trees = trees_of(name, size)
        store = make_store(program)
        try:
            for variant in VARIANTS:
                workdir = os.path.join(build_dir, f"{name}-{variant}")
                with rec.span("codegen.build_and_run"):
                    first_outputs[name, variant] = compile_and_run(
                        trees[variant], program, store, keep_dir=workdir, openmp=False
                    )
                exes[name, variant] = workdir
        except CBackendError as exc:
            failures.append(f"{name} {variant}: {str(exc).splitlines()[0]}")
            continue
        if rec.enabled:
            # Replicas of the two stages inside compile_and_run that can be
            # called on their own; gcc is what remains of its span.
            with rec.span("codegen.generate_c"):
                generate_c(trees["fused"], program)
                generate_c(trees["initial"], program)
            with rec.span("codegen.first_run"):
                for variant in VARIANTS:
                    subprocess.run(["./kernel"], cwd=exes[name, variant], check=True)
        if not same(first_outputs[name, "fused"], first_outputs[name, "initial"]):
            failures.append(f"{name}@{size}: fused C and original-order C differ")
    return exes, first_outputs, results


def run_exe(workdir: str) -> float:
    t0 = time.perf_counter()
    code = subprocess.run(["./kernel"], cwd=workdir).returncode
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{workdir}/kernel exited with code {code}")
    return seconds


def read_outputs(workdir: str, like: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    return {
        t: np.fromfile(os.path.join(workdir, f"{t}.out.bin"), dtype=np.float64).reshape(a.shape)
        for t, a in like.items()
    }


def run(budget: harness.Budget) -> harness.Outcome:
    rec = Recorder(enabled=budget.trace)
    failures: List[str] = []
    setup: List[harness.Setup] = []
    build_dir = os.path.abspath("build")  # compile_and_run runs ./kernel from inside it
    for _ in range(budget.setup_repeats(SETUP_REPEATS)):
        shutil.rmtree(build_dir, ignore_errors=True)
        rec.reset()
        memo.clear_all()  # every repeat pays the same, cold, optimize
        (exes, first_outputs, results), one_setup = harness.calibrated(
            lambda: build_all(build_dir, rec, failures)
        )
        setup.append(one_setup)
    setup_spans = rec.self_times()
    attempted = len(setup) * len(PROGRAMS) * len(VARIANTS)

    def one_round(order, traced: bool) -> harness.Round:
        nonlocal attempted
        out = harness.Round(traced=traced)
        rec.enabled = traced
        out.tick()
        for name, _ in order:
            for variant, samples in (("fused", out.primary), ("initial", out.reference)):
                attempted += 1
                with rec.span(f"emitted.{variant}", op=name):
                    samples.append((name, run_exe(exes[name, variant])))
            out.tick()
        return out

    timed = [p for p in PROGRAMS if all((p[0], v) in exes for v in VARIANTS)]
    rounds = harness.run_rounds(one_round, timed, budget, WARMUP_ROUNDS, rec.reset)
    peak_rss = harness.vm_hwm_mb()

    # The last timed execution's live-outs must be what the first one wrote.
    for (name, variant), workdir in exes.items():
        attempted += 1
        first = first_outputs[name, variant]
        if not same(read_outputs(workdir, first), first):
            failures.append(f"{name} {variant}: output changed between executions")
    for name, size in CHECK_SIZES.items():
        attempted += 1
        problem = check_against_interpreter(name, size, os.path.join(build_dir, f"check-{name}"))
        if problem:
            failures.append(problem)
    defects = [
        problem
        for name, size in KNOWN_DEFECTS.items()
        if (problem := check_against_interpreter(name, size, os.path.join(build_dir, f"check-{name}")))
    ]

    metrics, raw, counts = harness.end_to_end(rounds, setup, peak_rss)

    per_layer: Dict[str, float] = {}
    if budget.trace:
        per_layer["core.optimize_s"] = setup_spans["core.optimize"]
        per_layer["codegen.generate_c_s"] = setup_spans["codegen.generate_c"]
        per_layer["codegen.gcc_s"] = (
            setup_spans["codegen.build_and_run"]
            - setup_spans["codegen.generate_c"]
            - setup_spans["codegen.first_run"]
        )
        fused = [exes[name, "fused"] for name, _ in timed]
        sources = [open(os.path.join(d, "kernel.c")).read() for d in fused]
        per_layer["codegen.c_bytes"] = sum(len(s.encode()) for s in sources)
        per_layer["codegen.guards"] = sum(s.count("if (") for s in sources)
        per_layer["codegen.exe_bytes"] = sum(os.path.getsize(os.path.join(d, "kernel")) for d in fused)
        per_layer["codegen.check_failures"] = len(defects)
        per_layer["machine.modeled_ms"] = 1e3 * sum(
            cpu_time(analyze_optimized(result), 1) for result in results.values()
        )
        per_layer["emitted.speedup_vs_initial"] = raw["ref_geomean_ms"] / raw["geomean_ms"]
        per_layer.update(harness.program_rows(rounds, "emitted", "fused_ms", "initial_ms"))
        per_layer["trace_overhead_share"] = harness.trace_overhead_share(rounds)

    return harness.Outcome(
        end_to_end=metrics,
        raw_timings=raw,
        sample_counts=counts,
        per_layer=per_layer,
        attempted=attempted,
        failures=failures,
        spans=rec.spans,
        notes={"known_defects": defects},
    )
