"""``repro.machine`` — analytical machine models (CPU / GPU / NPU)."""

from .cost import (
    ClusterWork,
    ProgramWork,
    analyze_optimized,
    reuse_summary,
)
from .cpu import CPUSpec, DEFAULT_CPU, cluster_time as cpu_cluster_time, cpu_time
from .gpu import DEFAULT_GPU, GPUSpec, gpu_time
from .npu import ConvLayer, DEFAULT_NPU, NPUSpec, conv_bn_time, network_time

__all__ = [
    "CPUSpec",
    "ClusterWork",
    "ConvLayer",
    "DEFAULT_CPU",
    "DEFAULT_GPU",
    "DEFAULT_NPU",
    "GPUSpec",
    "NPUSpec",
    "ProgramWork",
    "analyze_optimized",
    "conv_bn_time",
    "cpu_cluster_time",
    "cpu_time",
    "gpu_time",
    "network_time",
    "reuse_summary",
]
