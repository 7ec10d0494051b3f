"""Workload ``cold_compile``: the library/CLI user's path.

One primary operation is ``get_workload`` -> ``optimize`` ->
``print_tree`` for one program with every presburger memo table cleared
first (the paper's compile-time column; memo tables on their *miss*
path).  The reference operation is the same call again straight after,
memo tables primed by the first (the in-process warm recompile).
presburger, deps, scheduler, core, schedule and codegen.printer do all
the work; service and serve do none.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.api import CompileCache, CompileOptions, default_tile_sizes, get_workload, optimize
from repro.codegen.interp import execute_naive, make_store, run_program
from repro.codegen.printer import print_tree
from repro.core import apply_mixed_schedules, composite_tiling_fusion
from repro.deps import flow_deps
from repro.machine import analyze_optimized, cpu_time
from repro.presburger import memo
from repro.scheduler import schedule_program
from repro.service.fingerprint import fingerprint_request

import harness
from spans import Recorder

#: The paper's image pipelines at the CLI's default size, three PolyBench
#: kernels, the mixed camera+resnet pipeline, equake and the NPU operator
#: pair: every program family the optimizer handles, one to 99 statements.
PROGRAMS: List[Tuple[str, int]] = [
    ("local_laplacian", 512),
    ("multiscale_interp", 512),
    ("camera_pipeline", 512),
    ("harris", 512),
    ("bilateral_grid", 512),
    ("unsharp_mask", 512),
    ("covariance", 256),
    ("3mm", 256),
    ("gemver", 256),
    ("camera_resnet", 512),
    ("equake", 8000),
    ("conv_bn", 32),
]

#: Size at which each program is re-compiled with tiles clamped to 4 (so
#: the check crosses tile boundaries and recomputes halos) and executed by
#: the interpreter against ``execute_naive``.
CHECK_SIZES: Dict[str, int] = {
    "camera_pipeline": 16,
    "harris": 16,
    "bilateral_grid": 32,
    "unsharp_mask": 16,
    "covariance": 8,
    "3mm": 8,
    "gemver": 12,
    "equake": 64,
    "conv_bn": 8,
}

#: Programs whose interpreter check exceeds 5 s at the smallest size their
#: builder accepts; they are covered by the code-hash checks only.
UNCHECKED: Dict[str, str] = {
    "local_laplacian": "19 s in the interpreter at size 64, the smallest accepted",
    "multiscale_interp": "builder rejects every size below 160",
    "camera_resnet": "17 s in the interpreter at size 32, the smallest accepted",
}

#: Programs ``repro.machine`` cannot cost at the benchmark's size.
UNMODELED: Dict[str, str] = {
    "multiscale_interp": "analyze_optimized: tensor t_interp0 has extent -512 at size 512",
}

#: Thread count of the modeled run time: the autotuner's default objective.
MODEL_THREADS = 32

WARMUP_ROUNDS = 1
SETUP_REPEATS = 5


def build_programs():
    """The set-up a fresh process pays: import ``repro.api``, build the set."""
    return {name: get_workload(name, size) for name, size in PROGRAMS}


def options_for(name: str) -> CompileOptions:
    return CompileOptions(tile_sizes=default_tile_sizes(name))


def compile_plain(name: str, size: int):
    """The operation as a user runs it."""
    program = get_workload(name, size)
    result = optimize(program, options_for(name))
    return result, print_tree(result.tree, program)


def compile_staged(name: str, size: int, rec: Recorder):
    """The same operation through ``optimize``'s public stages, one span
    per layer."""
    with rec.span("ir.build"):
        program = get_workload(name, size)
    opts = options_for(name)
    with rec.span("scheduler.startup"):
        scheduled = schedule_program(program, opts.startup)
    with rec.span("core.tile_shapes"):
        mixed = composite_tiling_fusion(program, scheduled, opts.tile_sizes, opts.target)
    with rec.span("core.post_fusion"):
        tree = apply_mixed_schedules(program, scheduled, mixed)
    with rec.span("codegen.print_tree"):
        code = print_tree(tree, program)
    return code


def code_hash(code: str) -> str:
    return hashlib.sha256(code.encode()).hexdigest()


def check_program(name: str) -> str:
    """Interpreter vs naive order, bit for bit; '' when they agree."""
    program = get_workload(name, CHECK_SIZES[name])
    tiles = default_tile_sizes(name)
    if tiles is not None:
        tiles = tuple(min(t, 4) for t in tiles)
    result = optimize(program, CompileOptions(tile_sizes=tiles))
    store, _ = run_program(program, result.tree)
    reference = make_store(program)
    execute_naive(program, reference)
    bad = [t for t in program.liveout if not np.array_equal(store[t], reference[t])]
    return f"{name}: live-out {bad} differs from execute_naive" if bad else ""


def presburger_probe(programs) -> None:
    """A fixed script of set operations over the set's domains and access
    maps: the presburger layer alone, without the optimizer above it."""
    for program in programs.values():
        for stmt in program.statements:
            domain = stmt.domain
            domain.intersect(domain).is_empty()
            domain.project_out(list(domain.space.dims)[-1:]).is_empty()
            domain.bounding_box(program.params)
            write = stmt.write_relation().reverse()
            reads = stmt.read_relations()
            for key in reads.keys():
                access = reads.get(key)
                write.apply_range(access).is_empty()
                access.range().bounding_box(program.params)


def layer_probes(programs, results) -> Dict[str, float]:
    """Layers the operation does not call, or calls buried in another
    layer's span: timed on their own, outside the op's sum."""
    out: Dict[str, float] = {}
    t = 0.0
    edges = 0
    for program in programs.values():
        memo.clear_all()
        t0 = time.perf_counter()
        edges += len(flow_deps(program))
        t += time.perf_counter() - t0
    out["deps.flow_deps_s"] = t
    out["deps.edges"] = edges

    memo.clear_all()
    t0 = time.perf_counter()
    presburger_probe(programs)
    out["presburger.probe_cold_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    presburger_probe(programs)
    out["presburger.probe_warm_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    modeled = 0.0
    for name, r in results.items():
        if name not in UNMODELED:
            modeled += cpu_time(analyze_optimized(r), MODEL_THREADS)
    out["machine.analyze_s"] = time.perf_counter() - t0
    out["machine.modeled_ms"] = 1e3 * modeled

    t0 = time.perf_counter()
    keys = {
        name: fingerprint_request(programs[name], r.target, r.tile_sizes, "smartfuse")
        for name, r in results.items()
    }
    out["service.fingerprint_s"] = time.perf_counter() - t0
    cache = CompileCache(persistent=False, max_entries=len(results) + 1)
    t0 = time.perf_counter()
    for name, r in results.items():
        cache.put(keys[name], r)
    out["service.encode_s"] = time.perf_counter() - t0
    out["service.blob_bytes"] = cache.info()["memory_bytes"]
    return out


def counted_pass() -> Dict[str, float]:
    """One pass of the primary operation under ``repro.obs.collect()``."""
    before = memo.stats()
    with obs.collect() as report:
        nodes = code_bytes = 0
        for name, size in PROGRAMS:
            memo.clear_all()
            result, code = compile_plain(name, size)
            nodes += sum(1 for _ in result.tree.walk())
            code_bytes += len(code.encode())
    after = memo.stats()
    hits = sum(after[t]["hits"] - before.get(t, {}).get("hits", 0) for t in after)
    misses = sum(after[t]["misses"] - before.get(t, {}).get("misses", 0) for t in after)
    c = report.counters
    return {
        "presburger.fm_eliminate": c.get("presburger.fm_eliminate", 0),
        "presburger.integer_sample": c.get("presburger.integer_sample", 0),
        "presburger.memo_misses": misses,
        "presburger.memo_hit_ratio": hits / max(hits + misses, 1),
        "core.fused_spaces": c.get("tile_shapes.fused_spaces", 0),
        "core.rejected_spaces": c.get("tile_shapes.rejected_spaces", 0),
        "core.extensions_spliced": c.get("post_fusion.extensions_spliced", 0),
        "schedule.tree_nodes": nodes,
        "codegen.code_bytes": code_bytes,
    }


LAYERS = {
    "ir.build": "ir.build_s",
    "scheduler.startup": "scheduler.startup_s",
    "core.tile_shapes": "core.tile_shapes_s",
    "core.post_fusion": "core.post_fusion_s",
    "codegen.print_tree": "codegen.print_tree_s",
    "cold.op": "cold.unattributed_s",
}


def run(budget: harness.Budget) -> harness.Outcome:
    setup = harness.fresh_process_seconds(
        "from workloads import cold_compile; cold_compile.build_programs()",
        budget.setup_repeats(SETUP_REPEATS),
    )
    rec = Recorder(enabled=budget.trace)
    failures: List[str] = []
    hashes: Dict[str, str] = {}
    results = {}
    attempted = 0

    def note(name: str, code: str, how: str) -> None:
        nonlocal attempted
        attempted += 1
        digest = code_hash(code)
        if hashes.setdefault(name, digest) != digest:
            failures.append(f"{name}: {how} compile printed different code")

    def one_round(order, traced: bool) -> harness.Round:
        out = harness.Round(traced=traced)
        out.tick()
        for name, size in order:
            memo.clear_all()
            t0 = time.perf_counter()
            if traced:
                with rec.span("cold.op", op=name):
                    code = compile_staged(name, size, rec)
            else:
                results[name], code = compile_plain(name, size)
            t1 = time.perf_counter()
            _, warm_code = compile_plain(name, size)
            t2 = time.perf_counter()
            out.primary.append((name, t1 - t0))
            out.reference.append((name, t2 - t1))
            note(name, code, "staged" if traced else "cold")
            note(name, warm_code, "warm")
            out.tick()
        return out

    per_layer: Dict[str, float] = {}
    if budget.trace:
        first, second = counted_pass(), counted_pass()
        if first == second:
            per_layer.update(first)
        else:
            failures.append("obs counts differ between two identical passes")

    rounds = harness.run_rounds(one_round, PROGRAMS, budget, WARMUP_ROUNDS, rec.reset)
    peak_rss = harness.vm_hwm_mb()

    for name in CHECK_SIZES:
        attempted += 1
        problem = check_program(name)
        if problem:
            failures.append(problem)

    metrics, raw, counts = harness.end_to_end(rounds, setup, peak_rss)

    if budget.trace:
        per_layer.update(harness.layer_times(rec.self_times(), LAYERS, rounds))
        per_layer.update(layer_probes(build_programs(), results))
        per_layer.update(harness.program_rows(rounds, "cold", "op_ms"))
        per_layer["trace_overhead_share"] = harness.trace_overhead_share(rounds)

    return harness.Outcome(
        end_to_end=metrics,
        raw_timings=raw,
        sample_counts=counts,
        per_layer=per_layer,
        attempted=attempted,
        failures=failures,
        spans=rec.spans,
        notes={"unchecked_programs": UNCHECKED, "unmodeled_programs": UNMODELED, "code_hashes": hashes},
    )

