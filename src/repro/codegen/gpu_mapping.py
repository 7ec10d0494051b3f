"""GPU mapping (Section V): kernel/thread marks and synchronisation.

PPCG models the CUDA mapping with mark nodes: the outermost parallel tile
band of each fused cluster is marked ``"kernel"`` (its dims map to the
block grid), the point band and every extension subtree band are marked
``"thread"`` (their dims map to threads), and a ``"sync"`` mark between an
extension's producer filter and the consumer subtree becomes a
``__syncthreads()`` — the fused producer fills shared memory that all
threads of the block then read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..core import OptimizeResult
from ..schedule import (
    BandNode,
    ExtensionNode,
    FilterNode,
    MarkNode,
    Node,
    SequenceNode,
    top_level_filters,
)

KERNEL = "kernel"
THREAD = "thread"
SYNC = "sync"


@dataclass
class KernelInfo:
    """One launched kernel: its grid/block dims and shared buffers."""

    name: str
    statements: Tuple[str, ...]
    grid_dims: Tuple[str, ...]
    block_dims: Tuple[str, ...]
    shared_tensors: Tuple[str, ...]


def map_to_gpu(result: OptimizeResult) -> List[KernelInfo]:
    """Annotate the result's tree with GPU marks; returns kernel metadata.

    The tree is modified in place (idempotent: existing marks are reused).
    """
    from .promotion import promoted_buffers

    with obs.span("codegen.gpu_mapping"):
        buffers = promoted_buffers(result)
        kernels = _map_kernels(result, buffers)
        obs.annotate(kernels=len(kernels))
        return kernels


def _map_kernels(result: OptimizeResult, buffers) -> List[KernelInfo]:
    kernels: List[KernelInfo] = []
    for ki, filt in enumerate(top_level_filters(result.tree)):
        band = _first_band(filt)
        if band is None:
            continue
        name = f"kernel{ki}"
        _ensure_mark(filt, KERNEL + f":{name}")
        grid = tuple(band.dim_names[: max(1, band.n_parallel() or 1)])
        block_dims: Tuple[str, ...] = ()
        if band.tile_sizes is not None:
            point = band.child
            ext = None
            if isinstance(point, ExtensionNode):
                ext = point
                point = _subtree_point_band(point)
            if isinstance(point, BandNode):
                block_dims = tuple(point.dim_names[:2])
                _mark_thread_bands(band)
            if ext is not None:
                _mark_syncs(ext)
        cluster_key = _cluster_key(result, filt)
        shared = tuple(
            b.tensor for b in buffers.get(cluster_key, [])
        )
        kernels.append(
            KernelInfo(
                name=name,
                statements=tuple(filt.statements),
                grid_dims=grid,
                block_dims=block_dims,
                shared_tensors=shared,
            )
        )
    return kernels


def _cluster_key(result: OptimizeResult, filt: FilterNode) -> str:
    for entry in result.mixed.tiling_entries():
        if set(entry.group.statements) <= set(filt.statements):
            return entry.group.name
    return ""


def _first_band(node: Node) -> Optional[BandNode]:
    for n in node.walk():
        if isinstance(n, BandNode):
            return n
    return None


def _subtree_point_band(ext: ExtensionNode) -> Optional[Node]:
    """The original (live-out) point band below an extension's sequence."""
    seq = ext.child
    if isinstance(seq, SequenceNode) and seq.filters:
        return _first_band(seq.filters[-1])
    return None


def _ensure_mark(node: Node, mark: str) -> None:
    if isinstance(node.child, MarkNode) and node.child.mark == mark:
        return
    node.child = MarkNode(mark, node.child)


def _mark_thread_bands(tile_band: BandNode) -> None:
    """Wrap every band directly below the tile band in a thread mark."""
    def visit(node: Optional[Node]) -> None:
        if node is None:
            return
        for i, child in enumerate(list(node.children)):
            if isinstance(child, BandNode):
                mark = MarkNode(THREAD, child)
                if isinstance(node, SequenceNode):
                    # children of sequences are filters; bands hang below
                    visit(child)
                    continue
                node.child = mark
                continue
            visit(child)

    # Walk filters/extensions below the tile band; wrap first bands.
    for n in tile_band.walk():
        if isinstance(n, FilterNode) and isinstance(n.child, BandNode):
            n.child = MarkNode(THREAD, n.child)


def _mark_syncs(ext: ExtensionNode) -> None:
    """Insert a sync mark after each extension producer filter."""
    seq = ext.child
    if not isinstance(seq, SequenceNode):
        return
    for filt in seq.filters[:-1]:
        if not (isinstance(filt.child, MarkNode) and filt.child.mark == SYNC):
            filt.child = MarkNode(SYNC, filt.child)
