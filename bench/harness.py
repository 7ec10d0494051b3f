"""What the four workloads share: statistics, the round loop and the
uniform end-to-end metrics.

Every workload is a closed loop with one client.  It runs *rounds*; a
round is one pass, in a seeded order, over the workload's program (or
key) set, and each element of the set contributes one **primary**
operation and one **reference** operation (the same work through the
path the primary one is compared with — see ``bench/README.md``).  The
end-to-end metrics are the same four statistics of those samples on
every workload, plus ``setup_s`` and ``peak_rss_mb``.  Timings are
reported in *calibrated* seconds: each is scaled by a fixed loop timed
around it, because this class of host changes speed under the benchmark.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One timed operation: (program name, seconds).
Sample = Tuple[str, float]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def by_program(samples: Iterable[Sample]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for name, seconds in samples:
        out.setdefault(name, []).append(seconds)
    return out


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: What the calibration loop takes on this class of machine when nothing
#: else runs on the host; calibrated seconds are seconds at that speed.
NOMINAL_CALIBRATION_S = 0.0065

_CALIBRATION_BLOB = pickle.dumps(
    [
        {"id": i, "name": f"s{i}", "dims": (i, i + 1, i % 7),
         "rows": [[j, -j, i ^ j] for j in range(6)]}
        for i in range(3000)
    ]
)


def _calibration_loop() -> None:
    graph = pickle.loads(_CALIBRATION_BLOB)
    acc = 0
    for node in graph:
        for row in node["rows"]:
            acc += row[0] * 3 - row[2]
    dims = {node["name"]: node["dims"] for node in graph}
    acc += len(sorted(dims, key=lambda k: dims[k][2]))


def calibrate() -> float:
    """Seconds one fixed loop takes right now: unpickle a graph of 25 000
    small objects, walk it, build and sort a dict.  It calls nothing from
    ``repro``, so only the machine can change it: the host slows every
    process by 30-50 % for minutes at a time (see README), and every timing
    is scaled by the calibration samples taken around it.

    The collector is off while it runs and the first of two passes is not
    timed, so that neither the size of the heap nor the state of the caches
    the operation before it left behind gets into the sample."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _calibration_loop()
        t0 = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


#: One set-up: (seconds, calibration seconds around it).
Setup = Tuple[float, float]


def calibrated(fn: Callable[[], object]) -> Tuple[object, Setup]:
    """Run ``fn`` between two calibration samples."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, (seconds, (before + calibrate()) / 2)


def fresh_process_seconds(statement: str, repeats: int) -> List[Setup]:
    """Wall time, spawn to exit, of fresh interpreters running ``statement``
    (the worker's isolated environment and ``sys.path`` are inherited)."""

    def spawn() -> None:
        subprocess.run([sys.executable, "-c", statement], check=True)

    return [calibrated(spawn)[1] for _ in range(repeats)]


@dataclass
class Round:
    """The samples of one pass over the program set."""

    primary: List[Sample] = field(default_factory=list)
    reference: List[Sample] = field(default_factory=list)
    traced: bool = False
    calibration: List[float] = field(default_factory=list)
    #: How many operations had been recorded at each calibration sample.
    marks: List[int] = field(default_factory=list)

    def tick(self, sample: Optional[float] = None) -> None:
        """Take a calibration sample (``sample`` stands in for it in tests).
        Workloads call it when a round starts and after each program, so
        every operation has one just before it and one just after."""
        self.calibration.append(calibrate() if sample is None else sample)
        self.marks.append(len(self.primary))

    def scales(self) -> List[float]:
        """Per operation, what turns its seconds into calibrated seconds:
        nominal ÷ the mean of the two calibration samples around it."""
        out: List[float] = []
        for j in range(len(self.marks) - 1):
            around = (self.calibration[j] + self.calibration[j + 1]) / 2
            out += [NOMINAL_CALIBRATION_S / around] * (self.marks[j + 1] - self.marks[j])
        if len(out) != len(self.primary):
            raise ValueError("a round must start and end with a calibration sample")
        return out

    def total(self) -> float:
        return sum(s for _, s in self.primary) + sum(s for _, s in self.reference)


@dataclass
class Budget:
    """How long one run measures (``--seconds``) and how much it repeats."""

    seconds: float
    seed: int
    trace: bool
    quick: bool

    def setup_repeats(self, full: int) -> int:
        return 1 if self.quick else full

    def warmup(self, full: int) -> int:
        return min(1, full) if self.quick else full


def run_rounds(
    one_round: Callable[[List, bool], Round],
    items: Sequence,
    budget: Budget,
    warmup: int,
    after_warmup: Callable[[], None] = lambda: None,
) -> List[Round]:
    """Warm up, then run whole rounds until ``budget.seconds`` have passed.

    ``one_round(order, traced)`` gets the items in this round's seeded
    order.  In a traced run plain and traced rounds alternate, so both
    see the same machine state and their difference is the tracing
    overhead.  ``after_warmup`` runs between the discarded warm-up rounds
    and the timed ones.  Returns the timed rounds.
    """
    rng = random.Random(budget.seed)

    def shuffled() -> List:
        order = list(items)
        rng.shuffle(order)
        return order

    for _ in range(budget.warmup(warmup)):
        one_round(shuffled(), False)
        if budget.trace:
            one_round(shuffled(), True)
    after_warmup()
    rounds: List[Round] = []
    need = 2 if budget.trace else 1
    t0 = time.perf_counter()
    while len(rounds) < need or time.perf_counter() - t0 < budget.seconds:
        traced = budget.trace and len(rounds) % 2 == 1
        rounds.append(one_round(shuffled(), traced))
    return rounds


def _timing_metrics(rounds: Sequence[Round], setup: Sequence[Setup], calibrate_: bool):
    def scaled(r: Round, samples: List[Sample]) -> List[Sample]:
        scales = r.scales() if calibrate_ else [1.0] * len(samples)
        return [(n, s * f) for (n, s), f in zip(samples, scales)]

    primary = [scaled(r, r.primary) for r in rounds]
    reference = [scaled(r, r.reference) for r in rounds]
    return {
        "suite_s": statistics.median(sum(s for _, s in r) for r in primary),
        "ref_suite_s": statistics.median(sum(s for _, s in r) for r in reference),
        "geomean_ms": 1e3 * geomean(
            statistics.median(v) for v in by_program(s for r in primary for s in r).values()
        ),
        "ref_geomean_ms": 1e3 * geomean(
            statistics.median(v) for v in by_program(s for r in reference for s in r).values()
        ),
        "setup_s": statistics.median(
            s * (NOMINAL_CALIBRATION_S / c if calibrate_ else 1.0) for s, c in setup
        ),
    }


def end_to_end(
    rounds: Sequence[Round], setup: Sequence[Setup], peak_rss_mb: float
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """The end-to-end metrics of the untraced rounds — four uniform
    statistics of the samples and the median set-up, in calibrated
    seconds, and the peak memory — then the same timings as the clock read
    them, and the sample count behind each."""
    plain = [r for r in rounds if not r.traced]
    metrics = _timing_metrics(plain, setup, True)
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = _timing_metrics(plain, setup, False)
    raw["calibration_ms"] = 1e3 * statistics.median(
        [c for r in plain for c in r.calibration] + [c for _, c in setup]
    )
    n_programs = len({n for r in plain for n, _ in r.primary})
    counts = {
        "suite_s": len(plain),
        "ref_suite_s": len(plain),
        "geomean_ms": n_programs,
        "ref_geomean_ms": n_programs,
        "setup_s": len(setup),
    }
    return metrics, raw, counts


def layer_times(
    self_times: Dict[str, float], layers: Dict[str, str], rounds: Sequence[Round]
) -> Dict[str, float]:
    """Self time per traced round of each span in ``layers`` (span name ->
    metric name); they add up to the traced rounds' mean op total."""
    n_traced = sum(1 for r in rounds if r.traced)
    return {
        metric: self_times.get(span, 0.0) / n_traced for span, metric in layers.items()
    }


def trace_overhead_share(rounds: Sequence[Round]) -> float:
    """(traced − untraced) ÷ untraced, on the median round total."""
    plain = [r.total() for r in rounds if not r.traced]
    traced = [r.total() for r in rounds if r.traced]
    if not plain or not traced:
        return 0.0
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base


def program_rows(
    rounds: Sequence[Round], prefix: str, primary: str, reference: str = ""
) -> Dict[str, float]:
    """Per-program median rows, in ms, named ``<prefix>.<program>.<suffix>``."""
    plain = [r for r in rounds if not r.traced]
    rows: Dict[str, float] = {}
    for name, v in by_program(s for r in plain for s in r.primary).items():
        rows[f"{prefix}.{name}.{primary}"] = 1e3 * statistics.median(v)
    if reference:
        for name, v in by_program(s for r in plain for s in r.reference).items():
            rows[f"{prefix}.{name}.{reference}"] = 1e3 * statistics.median(v)
    return rows


@dataclass
class Outcome:
    """What a workload hands back to ``worker.py``."""

    end_to_end: Dict[str, float]
    raw_timings: Dict[str, float]
    sample_counts: Dict[str, int]
    per_layer: Dict[str, float]
    attempted: int
    failures: List[str]
    spans: List[dict]
    notes: Dict[str, object] = field(default_factory=dict)
