"""``repro.pipelines`` — the workloads of the paper's evaluation.

Image processing (PolyMage benchmarks, Table I): bilateral_grid,
camera_pipeline, harris, local_laplacian, multiscale_interp, unsharp_mask.
Finite elements (SPEC CPU2000): equake.  Linear algebra / data mining
(PolyBench, Table II): polybench.  Neural networks (Table III): resnet and
the conv2d running example of Fig. 1.  Convolution pipelines that update
a live-in in place: mixed (camera_resnet, edge_infer).
"""

from . import (
    bilateral_grid,
    camera_pipeline,
    conv2d,
    equake,
    harris,
    local_laplacian,
    mixed,
    multiscale_interp,
    polybench,
    resnet,
    unsharp_mask,
)

IMAGE_PIPELINES = {
    "bilateral_grid": bilateral_grid,
    "camera_pipeline": camera_pipeline,
    "harris": harris,
    "local_laplacian": local_laplacian,
    "multiscale_interp": multiscale_interp,
    "unsharp_mask": unsharp_mask,
}

__all__ = [
    "IMAGE_PIPELINES",
    "bilateral_grid",
    "camera_pipeline",
    "conv2d",
    "equake",
    "harris",
    "local_laplacian",
    "mixed",
    "multiscale_interp",
    "polybench",
    "resnet",
    "unsharp_mask",
]
