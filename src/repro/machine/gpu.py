"""Analytical GPU model (the paper's NVIDIA Quadro P6000).

One fusion cluster = one kernel.  The model captures the effects the paper
measures:

* two-level hardware parallelism: a cluster needs parallel tile dims for
  the block grid *and* parallel point dims for threads; losing either level
  (maxfuse) collapses utilisation;
* shared memory: promoted buffers run at shared-memory bandwidth while
  they fit; oversubscription reduces resident blocks per SM (occupancy);
* global-memory traffic is per-tile footprints, halo included, so unfused
  producer/consumer pairs pay the gather/scatter the paper describes;
* a fixed launch overhead per kernel (fusion reduces kernel count).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import ClusterWork, ProgramWork


@dataclass(frozen=True)
class GPUSpec:
    name: str = "Quadro P6000"
    sms: int = 30
    cores_per_sm: int = 128
    freq_ghz: float = 1.5
    global_bw_gbs: float = 430.0
    shared_bw_gbs: float = 4000.0
    shared_per_sm_bytes: int = 96 * 1024
    max_blocks_per_sm: int = 16
    threads_per_block: int = 256
    launch_overhead_s: float = 6e-6
    branchy_penalty: float = 2.0
    # double-precision throughput ratio on a Pascal gaming part
    dp_ratio: float = 1.0 / 8.0


DEFAULT_GPU = GPUSpec()


def _utilisation(work: ClusterWork, spec: GPUSpec) -> float:
    """Fraction of peak compute the cluster's parallelism can feed."""
    if work.n_parallel_dims == 0:
        if work.wavefront:
            # Permutable skewed bands admit diagonal (wavefront) mapping,
            # at poor occupancy and with synchronisation between fronts.
            return 0.05
        # Entirely serial kernel: a single thread crawls.
        return 1.0 / (spec.sms * spec.cores_per_sm)
    blocks = work.parallel_units
    # PPCG strip-mines a parallel dimension across blocks *and* threads,
    # so even a single parallel dim feeds full thread blocks.
    per_block_threads = spec.threads_per_block

    # Occupancy: shared-memory bound blocks per SM.
    if work.scratch_bytes_per_tile > 0:
        resident = max(
            1, min(spec.max_blocks_per_sm, spec.shared_per_sm_bytes // work.scratch_bytes_per_tile)
        )
    else:
        resident = spec.max_blocks_per_sm
    occupancy = min(1.0, resident / 4.0)  # 4 blocks/SM keeps Pascal busy

    total_threads = blocks * per_block_threads
    peak_threads = spec.sms * spec.cores_per_sm
    return min(1.0, total_threads / peak_threads) * occupancy


def cluster_time(work: ClusterWork, spec: GPUSpec = DEFAULT_GPU) -> float:
    util = _utilisation(work, spec)
    peak = spec.sms * spec.cores_per_sm * spec.freq_ghz * 1e9 * spec.dp_ratio
    ops = work.ops * (spec.branchy_penalty if work.ifs_in_body else 1.0)
    compute = ops / max(peak * util, 1.0)

    dram_bytes = work.total_dram_bytes()
    scratch_bytes = work.scratch_traffic_bytes
    if work.scratch_bytes_per_tile > spec.shared_per_sm_bytes:
        dram_bytes += scratch_bytes
        scratch_bytes = 0.0
    mem = dram_bytes / (spec.global_bw_gbs * 1e9)
    shared = scratch_bytes / (spec.shared_bw_gbs * 1e9)

    return max(compute, mem) + shared + spec.launch_overhead_s


def gpu_time(work: ProgramWork, spec: GPUSpec = DEFAULT_GPU) -> float:
    return sum(cluster_time(c, spec) for c in work.clusters)
