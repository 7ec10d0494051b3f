"""``repro.machine`` — analytical machine models (CPU / GPU / NPU)."""

from .cost import (
    ClusterWork,
    ITEMSIZE,
    ProgramWork,
    analyze_optimized,
    analyze_scheduled,
)
from .cpu import CPUSpec, DEFAULT_CPU, cluster_time as cpu_cluster_time
from .cpu import program_time as cpu_time
from .cpu import speedup_over
from .gpu import DEFAULT_GPU, GPUSpec
from .gpu import program_time as gpu_time
from .npu import ConvLayer, DEFAULT_NPU, NPUSpec, conv_bn_time, network_time
from .npu import program_time as npu_time
from .roofline import RooflinePoint, intensity_gain, roofline
from .targets import COST_TARGETS, cluster_cost, program_cost
from .transfer import (
    DEFAULT_TRANSFER,
    LinkSpec,
    PCIE_TRANSFER,
    TransferSpec,
    transfer_time,
)

__all__ = [
    "COST_TARGETS",
    "CPUSpec",
    "ClusterWork",
    "ConvLayer",
    "DEFAULT_CPU",
    "DEFAULT_GPU",
    "DEFAULT_NPU",
    "DEFAULT_TRANSFER",
    "GPUSpec",
    "ITEMSIZE",
    "LinkSpec",
    "NPUSpec",
    "PCIE_TRANSFER",
    "ProgramWork",
    "RooflinePoint",
    "TransferSpec",
    "analyze_optimized",
    "analyze_scheduled",
    "cluster_cost",
    "conv_bn_time",
    "cpu_cluster_time",
    "cpu_time",
    "gpu_time",
    "intensity_gain",
    "network_time",
    "npu_time",
    "program_cost",
    "roofline",
    "speedup_over",
    "transfer_time",
]
