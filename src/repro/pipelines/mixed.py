"""Mixed pipelines: pointwise stages around large-kernel convolutions.

Two camera/inference front-ends.  Each opens with an **in-place** stage
(an ASSIGN reading the tensor it writes, like conv2d's quantisation), so
the live-in is updated in place
(:func:`repro.codegen.promotion.updated_in_place`) and the emitted C keeps
those updates in a tile buffer:

* ``camera_resnet`` — in-place sensor quantisation, then two stacked
  large-kernel conv + batchnorm/ReLU pairs (a camera front-end feeding
  ResNet-style layers).
* ``edge_infer`` — in-place normalisation, a 2×2 box-filter preprocess,
  one large-kernel convolution, and an in-place ReLU on the result (in
  place at *both* ends of the pipeline).

Sizes follow the registry convention: ``build(size)`` scales the image;
kernel extents stay fixed so the convolutions' arithmetic intensity is
size-independent.
"""

from __future__ import annotations


from ..ir import Program, ProgramBuilder, quant, relu

#: Kernel extent of the ResNet-style convolutions.  Large on purpose: a
#: K×K conv reduction has stage-level arithmetic intensity ~K²/12 ops per
#: DRAM byte.
CAMERA_K = 15
EDGE_K = 13

TILE_SIZES = (32, 32)


def build_camera_resnet(size: int = 512, k: int = CAMERA_K) -> Program:
    """Quantise in place, then two conv+bn/ReLU pairs (kernels ``k``)."""
    if size < 2 * k + 2:
        raise ValueError(
            f"camera_resnet needs size >= {2 * k + 2} for k={k}, got {size}"
        )
    p = {"H": size, "W": size, "KH": k, "KW": k}
    b = ProgramBuilder("camera_resnet", params=p)
    H, W, KH, KW = (b.param(n) for n in ("H", "W", "KH", "KW"))
    X = b.tensor("X", ("H", "W"))
    K1 = b.tensor("K1", ("KH", "KW"))
    K2 = b.tensor("K2", ("KH", "KW"))
    F = b.tensor("F", (H - KH + 1, W - KW + 1))
    Y = b.tensor("Y", (H - KH + 1, W - KW + 1))
    G = b.tensor("G", (H - 2 * KH + 2, W - 2 * KW + 2))
    Z = b.tensor("Z", (H - 2 * KH + 2, W - 2 * KW + 2))
    gamma = b.tensor("gamma", (1,))
    beta = b.tensor("beta", (1,))
    h, w, kh, kw = b.iters("h", "w", "kh", "kw")

    box1 = "0 <= h <= H - KH and 0 <= w <= W - KW"
    box2 = "0 <= h <= H - 2*KH + 1 and 0 <= w <= W - 2*KW + 1"
    kbox = " and 0 <= kh < KH and 0 <= kw < KW"

    # In-place sensor quantisation.
    b.assign("Squant", (h, w), "0 <= h < H and 0 <= w < W", X[h, w], quant(X[h, w]))
    b.assign("Sconv1_init", (h, w), box1, F[h, w], 0)
    b.reduce(
        "Sconv1", (h, w, kh, kw), box1 + kbox,
        F[h, w], X[h + kh, w + kw] * K1[kh, kw],
    )
    b.assign("Sbn1", (h, w), box1, Y[h, w], relu(F[h, w] * gamma[0] + beta[0]))
    b.assign("Sconv2_init", (h, w), box2, G[h, w], 0)
    b.reduce(
        "Sconv2", (h, w, kh, kw), box2 + kbox,
        G[h, w], Y[h + kh, w + kw] * K2[kh, kw],
    )
    b.assign("Sbn2", (h, w), box2, Z[h, w], relu(G[h, w] * gamma[0] + beta[0]))
    b.set_liveout("Z")
    return b.build()


def build_edge_infer(size: int = 512, k: int = EDGE_K) -> Program:
    """Normalise in place, box-filter, one big conv, ReLU in place."""
    if size < k + 3:
        raise ValueError(
            f"edge_infer needs size >= {k + 3} for k={k}, got {size}"
        )
    p = {"H": size, "W": size, "KH": k, "KW": k}
    b = ProgramBuilder("edge_infer", params=p)
    H, W, KH, KW = (b.param(n) for n in ("H", "W", "KH", "KW"))
    A = b.tensor("A", ("H", "W"))
    Kw = b.tensor("Kw", ("KH", "KW"))
    Bt = b.tensor("B", (H - 1, W - 1))
    C = b.tensor("C", (H - KH, W - KW))
    h, w, kh, kw = b.iters("h", "w", "kh", "kw")

    boxb = "0 <= h <= H - 2 and 0 <= w <= W - 2"
    boxc = "0 <= h <= H - KH - 1 and 0 <= w <= W - KW - 1"
    kbox = " and 0 <= kh < KH and 0 <= kw < KW"

    # In-place normalisation.
    b.assign("Snorm", (h, w), "0 <= h < H and 0 <= w < W", A[h, w], quant(A[h, w]))
    # 2×2 box filter: cheap, memory-bound preprocess.
    b.assign(
        "Sbox", (h, w), boxb,
        Bt[h, w],
        (A[h, w] + A[h + 1, w] + A[h, w + 1] + A[h + 1, w + 1]) * 0.25,
    )
    b.assign("Sconv_init", (h, w), boxc, C[h, w], 0)
    b.reduce(
        "Sconv", (h, w, kh, kw), boxc + kbox,
        C[h, w], Bt[h + kh, w + kw] * Kw[kh, kw],
    )
    # In-place ReLU on the result.
    b.assign("Srelu", (h, w), boxc, C[h, w], relu(C[h, w]))
    b.set_liveout("C")
    return b.build()


#: Registry hooks: ``build_workload("camera_resnet"/"edge_infer", size)``.
MIXED_BUILDERS = {
    "camera_resnet": build_camera_resnet,
    "edge_infer": build_edge_infer,
}


def build(size: int = 512) -> Program:
    return build_camera_resnet(size)
