"""Analytical multi-core CPU model (the paper's dual-socket Xeon).

Time per cluster is the roofline maximum of compute and DRAM terms plus a
fast-memory term and a parallel-region overhead:

* compute scales with usable threads (capped by the cluster's parallel
  units), SIMD width when the body vectorises, and a penalty for guarded
  (maxfuse-style) bodies;
* DRAM bandwidth saturates: per-core bandwidth times threads, capped at
  the socket total;
* promoted scratch traffic runs at cache bandwidth — unless the per-tile
  scratch overflows the cache share, in which case it spills to DRAM
  (which is exactly why tile-size/footprint matching matters).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import ClusterWork, ProgramWork


@dataclass(frozen=True)
class CPUSpec:
    name: str = "2x Xeon E5-2683 v4"
    cores: int = 32
    freq_ghz: float = 2.1
    ops_per_cycle: float = 4.0
    simd_width: float = 4.0
    dram_bw_gbs: float = 68.0
    per_core_bw_gbs: float = 11.0
    cache_bw_gbs: float = 700.0
    scratch_capacity_bytes: int = 4 * 1024 * 1024
    parallel_overhead_s: float = 8e-6
    branchy_penalty: float = 1.6


DEFAULT_CPU = CPUSpec()


def cluster_time(
    work: ClusterWork, threads: int, spec: CPUSpec = DEFAULT_CPU
) -> float:
    threads = max(1, min(threads, spec.cores))
    if work.n_parallel_dims > 0:
        t_eff = min(threads, work.parallel_units)
    else:
        t_eff = 1

    ops = work.ops
    vec = spec.simd_width if (work.vectorizable and not work.ifs_in_body) else 1.0
    if work.ifs_in_body:
        ops *= spec.branchy_penalty
    compute = ops / (t_eff * spec.freq_ghz * 1e9 * spec.ops_per_cycle * vec)

    bw = min(spec.dram_bw_gbs, spec.per_core_bw_gbs * t_eff) * 1e9
    dram_bytes = work.total_dram_bytes()
    scratch_bytes = work.scratch_traffic_bytes
    if work.scratch_bytes_per_tile > spec.scratch_capacity_bytes:
        # Scratch does not fit the per-core cache share: it spills.
        dram_bytes += scratch_bytes
        scratch_bytes = 0.0
    mem = dram_bytes / bw
    cache = scratch_bytes / (spec.cache_bw_gbs * 1e9)

    return max(compute, mem) + cache + spec.parallel_overhead_s


def cpu_time(
    work: ProgramWork, threads: int, spec: CPUSpec = DEFAULT_CPU
) -> float:
    return sum(cluster_time(c, threads, spec) for c in work.clusters)

