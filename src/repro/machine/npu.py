"""Analytical NPU model — a DaVinci-style AI accelerator (Ascend 910).

The architecture of Fig. 7: a Cube unit for tensor/matrix work fed through
L0A/L0B/L0C, a Vector unit for elementwise work on the Unified Buffer, and
an L1 buffer in front of external HBM.  The effect the paper measures
(Table III) is about where a convolution's output meets its batchnorm:

* **unfused** (smartfuse could not fuse conv with batchnorm): the conv
  output spills from L0C through the UB to HBM and is read back for the
  vector ops — two full feature-map transfers over external memory;
* **fused** (post-tiling fusion): the tile's conv output moves L0C → UB,
  the batchnorm/ReLU consume it in place, and only the final result leaves
  the chip.

Off-chip latency dominates on this part, which is why the paper sees 1.72x
on conv+bn pairs.  The model prices whole conv+bn layers
(:func:`conv_bn_time`, :func:`network_time`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class NPUSpec:
    name: str = "Ascend 910 (DaVinci)"
    cube_tflops: float = 256.0        # fp16 tensor throughput
    vector_gops: float = 4096.0       # elementwise ops
    hbm_bw_gbs: float = 1200.0
    ub_bw_gbs: float = 12000.0        # on-chip unified buffer
    dma_overhead_s: float = 2.5e-6    # per off-chip transfer setup
    kernel_overhead_s: float = 10e-6  # per launched operator


DEFAULT_NPU = NPUSpec()


@dataclass
class ConvLayer:
    """One forward convolution + batchnorm (+ReLU) pair of ResNet-50."""

    name: str
    n: int          # batch
    h: int
    w: int
    c_in: int
    c_out: int
    k: int          # kernel size
    stride: int = 1

    @property
    def out_h(self) -> int:
        return max(1, self.h // self.stride)

    @property
    def out_w(self) -> int:
        return max(1, self.w // self.stride)

    def conv_macs(self) -> float:
        return (
            2.0
            * self.n
            * self.out_h
            * self.out_w
            * self.c_out
            * self.c_in
            * self.k
            * self.k
        )

    def output_bytes(self, itemsize: int = 2) -> float:
        return float(self.n * self.out_h * self.out_w * self.c_out * itemsize)

    def input_bytes(self, itemsize: int = 2) -> float:
        return float(self.n * self.h * self.w * self.c_in * itemsize)

    def weight_bytes(self, itemsize: int = 2) -> float:
        return float(self.c_out * self.c_in * self.k * self.k * itemsize)

    def bn_ops(self) -> float:
        # scale, shift, running stats, ReLU: ~6 vector ops per element
        return 6.0 * self.n * self.out_h * self.out_w * self.c_out


def conv_bn_time(
    layer: ConvLayer, fused: bool, spec: NPUSpec = DEFAULT_NPU
) -> float:
    """Execution time of one conv+batchnorm pair, fused or not."""
    conv_compute = layer.conv_macs() / (spec.cube_tflops * 1e12)
    conv_traffic = (
        layer.input_bytes() + layer.weight_bytes() + layer.output_bytes()
    )
    conv_time = max(conv_compute, conv_traffic / (spec.hbm_bw_gbs * 1e9))

    bn_compute = layer.bn_ops() / (spec.vector_gops * 1e9)
    if fused:
        # conv output stays in the UB; vector unit reads/writes on chip.
        bn_traffic_time = 2.0 * layer.output_bytes() / (spec.ub_bw_gbs * 1e9)
        overhead = spec.kernel_overhead_s + 2 * spec.dma_overhead_s
        return conv_time + max(bn_compute, bn_traffic_time) + overhead
    # Unfused: the conv output makes a round trip through HBM.
    spill = layer.output_bytes() / (spec.hbm_bw_gbs * 1e9)
    refill = layer.output_bytes() / (spec.hbm_bw_gbs * 1e9)
    writeback = layer.output_bytes() / (spec.hbm_bw_gbs * 1e9)
    bn_time = max(bn_compute, refill + writeback)
    overhead = 2 * spec.kernel_overhead_s + 4 * spec.dma_overhead_s
    return conv_time + spill + bn_time + overhead


def network_time(
    layers: Sequence[ConvLayer],
    fused: bool,
    other_ops_seconds: float = 0.0,
    spec: NPUSpec = DEFAULT_NPU,
) -> float:
    """Whole-network forward time: conv+bn pairs plus unrelated operator
    time that the fusion does not touch (pooling, fc, backward, ...)."""
    return sum(conv_bn_time(l, fused, spec) for l in layers) + other_ops_seconds
