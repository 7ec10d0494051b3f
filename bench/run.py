"""The repo's benchmark: ``python3 bench/run.py``.

    python3 bench/run.py --workload cold_compile --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --out bench/results/seed.json     # every workload, untraced + traced
    python3 bench/run.py --agree 10                        # two sets of runs, compared
    python3 bench/run.py --quick                           # smoke pass

Each run of one workload happens in its own worker process with an
isolated environment and a scratch directory under ``bench/.work/`` that
is removed, with everything the worker started, on every exit path.  The
metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root; a run prints every metric by
name with its unit and then, as its last line, the JSON object the
contract in ``bench/README.md`` describes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from harness import NOMINAL_CALIBRATION_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: A run must end within the contract's 180 s; the worker gets a little less.
WORKER_TIMEOUT_S = 170


def load_manifest() -> dict:
    with open(MANIFEST) as f:
        return json.load(f)


def isolated_env(workdir: str) -> Dict[str, str]:
    """The worker's environment: no ``REPRO_*`` switch survives, the cache,
    ``HOME`` and ``TMPDIR`` live in the scratch directory, hashing and
    OpenMP are pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    env.update(
        REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
        HOME=workdir,
        TMPDIR=tmp,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]),
    )
    return env


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, quick: bool = False
) -> dict:
    """One run of one workload in a fresh worker; returns its outcome."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    out = os.path.join(workdir, "outcome.json")
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out,
    ] + (["--quick"] if quick else [])
    proc = None
    try:
        # Its own session, so the daemon and every compiler or kernel the
        # worker starts die with it if it has to be killed.
        proc = subprocess.Popen(
            cmd, cwd=workdir, env=isolated_env(workdir), start_new_session=True
        )
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{workload} worker exited with code {code}")
        with open(out) as f:
            return json.load(f)
    finally:
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def contract_result(outcome: dict, manifest: dict) -> dict:
    """The last-line JSON object: every end-to-end metric of an untraced
    run, every per-layer metric of a traced one (0 for the layers this
    workload does not touch)."""
    if outcome["trace"]:
        values = outcome["per_layer"]
        unknown = set(values) - {m["name"] for m in manifest["per_layer"]}
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": outcome["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in manifest["end_to_end"]
        }
    failed = len(outcome["failures"])
    return {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def print_report(outcome: dict, manifest: dict) -> None:
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    kind = "traced" if outcome["trace"] else "untraced"
    print(f"== {outcome['workload']} (seed {outcome['seed']}, {kind}) ==")
    raw = outcome["raw_timings"]
    for name, value in outcome["end_to_end"].items():
        beside = f"  (n={outcome['sample_counts'][name]}; clock read {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<34} {value:>14.4f} {units[name]}{beside}")
    print(f"  {'calibration_ms':<34} {raw['calibration_ms']:>14.4f} ms  "
          f"(nominal {1e3 * NOMINAL_CALIBRATION_S:.1f}; timings above are scaled by nominal/measured)")
    for name, value in outcome["per_layer"].items():
        print(f"  {name:<34} {value:>14.4f} {units.get(name, '?')}")
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    print(f"  {'failed_share':<34} {failed / attempted:>14.4f} ratio  ({failed}/{attempted})")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")


def run_and_print(workload, seed, seconds, trace, quick, manifest, spans_path) -> dict:
    outcome = run_workload(workload, seed, seconds, trace, quick)
    spans = outcome.pop("spans")
    if spans_path and trace:
        with open(spans_path, "a") as f:
            for span in spans:
                f.write(json.dumps({"workload": workload, **span}) + "\n")
    print_report(outcome, manifest)
    result = contract_result(outcome, manifest)
    print(json.dumps(result), flush=True)
    return {"outcome": outcome, "result": result}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agree(manifest: dict, runs: int, seconds: float, out_path: str) -> int:
    """Two sets of runs of the same code, the second with the workloads in
    reverse order; every end-to-end metric must agree within its bound."""
    names = [w["name"] for w in manifest["workloads"]]
    sets: List[Dict[str, List[dict]]] = []
    for index, order in enumerate((names, names[::-1])):
        sets.append({})
        for workload in order:
            sets[index][workload] = [
                run_workload(workload, index * runs + k, seconds, 0) for k in range(runs)
            ]
            print(f"set {index + 1}: {workload} done ({runs} runs)", flush=True)
    report, bad = {}, 0
    for workload in names:
        report[workload] = {}
        for m in manifest["end_to_end"]:
            first = [r["end_to_end"][m["name"]] for r in sets[0][workload]]
            second = [r["end_to_end"][m["name"]] for r in sets[1][workload]]
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            row = {"first": first, "second": second, "first_median": a,
                   "second_median": b, "second_worse_by": worse, "bound": m["bound"]}
            if m["name"] in sets[0][workload][0]["raw_timings"]:
                # The same timing as the clock read it, for the record.
                raw_a, raw_b = (
                    statistics.median(r["raw_timings"][m["name"]] for r in sets[i][workload])
                    for i in (0, 1)
                )
                row["clock_second_worse_by"] = (raw_b - raw_a) / raw_a
                if runs >= 2:
                    row["clock_spreads"] = [
                        spread([r["raw_timings"][m["name"]] for r in sets[i][workload]])
                        for i in (0, 1)
                    ]
            if runs >= 2:
                row["first_spread"], row["second_spread"] = spread(first), spread(second)
            checked = [worse] + ([row["first_spread"], row["second_spread"]]
                                 if runs >= 2 and m["name"] != "setup_s" else [])
            row["ok"] = all(v <= m["bound"] for v in checked)
            bad += not row["ok"]
            report[workload][m["name"]] = row
            spreads = (f"  spread {row['first_spread']:.3f} / {row['second_spread']:.3f}"
                       if runs >= 2 else "")
            clock = ""
            if "clock_second_worse_by" in row:
                clock = f"  [clock {row['clock_second_worse_by']:+.3f}"
                if runs >= 2:
                    clock += " spread {:.3f} / {:.3f}".format(*row["clock_spreads"])
                clock += "]"
            print(f"{workload:<13} {m['name']:<15} {a:>12.4f} {b:>12.4f} {m['unit']:<5}"
                  f" second worse by {worse:+.3f} (bound {m['bound']}){spreads}{clock}"
                  f"{'' if row['ok'] else '  EXCEEDED'}")
    with open(out_path, "w") as f:
        json.dump({"runs_per_set": runs, "seconds": seconds, "metrics": report}, f, indent=1)
    print(f"wrote {out_path}; {bad} metric(s) outside their bound")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, spans off; 1: per-layer metrics; "
                        "default: one run of each")
    parser.add_argument("--quick", action="store_true",
                        help="smoke pass: one set-up, least rounds, --seconds 1")
    parser.add_argument("--out", help="also write every outcome to this JSON file")
    parser.add_argument("--spans", help="append the traced runs' spans to this JSONL file")
    parser.add_argument("--agree", type=int, metavar="RUNS", nargs="?", const=1,
                        help="run two sets of RUNS untraced runs per workload and "
                        "compare them; writes bench/results/noise.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.agree:
        return agree(manifest, args.agree, args.seconds,
                     os.path.join(BENCH_DIR, "results", "noise.json"))
    seconds = 1.0 if args.quick else args.seconds
    runs = [
        run_and_print(workload, args.seed, seconds, trace, args.quick, manifest, args.spans)
        for trace in ((0, 1) if args.trace is None else (args.trace,))
        for workload in ([args.workload] if args.workload else names)
    ]
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
