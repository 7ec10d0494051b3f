"""Schedule tree manipulation utilities.

These are the primitives Algorithm 2 composes: band splitting into
tile/point parts, node insertion below a band, subtree skipping via mark
nodes, and filter lookup.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..presburger import UnionMap
from .tree import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    Node,
    SequenceNode,
)

SKIPPED = "skipped"


def split_band(band: BandNode, n_outer: int) -> Tuple[BandNode, BandNode]:
    """Split a band into outer (tile) and inner (point) bands.

    The outer band keeps the first ``n_outer`` dimensions and adopts the
    inner band as its child.  Returns ``(outer, inner)`` — both freshly
    allocated; the original band is not mutated.
    """
    if not 0 < n_outer < band.n_dims:
        raise ValueError(
            f"cannot split a {band.n_dims}-dim band at {n_outer}"
        )
    inner = BandNode(
        {s: rows[n_outer:] for s, rows in band.schedules.items()},
        band.dim_names[n_outer:],
        band.permutable,
        band.coincident[n_outer:],
        band.child.copy() if band.child else LeafNode(),
    )
    outer = BandNode(
        {s: rows[:n_outer] for s, rows in band.schedules.items()},
        band.dim_names[:n_outer],
        band.permutable,
        band.coincident[:n_outer],
        inner,
    )
    return outer, inner


def find_filters(root: Node, predicate: Callable[[FilterNode], bool]) -> List[FilterNode]:
    return [n for n in root.walk() if isinstance(n, FilterNode) and predicate(n)]


def filter_of_statement(root: Node, stmt: str) -> Optional[FilterNode]:
    """The innermost filter node that contains ``stmt``."""
    best: Optional[FilterNode] = None
    for n in root.walk():
        if isinstance(n, FilterNode) and stmt in n.statements:
            best = n
    return best


def top_level_filters(root: DomainNode) -> List[FilterNode]:
    """The children of the root sequence (the fusion groups)."""
    child = root.child
    if isinstance(child, SequenceNode):
        return list(child.filters)
    if isinstance(child, FilterNode):
        return [child]
    return []


def mark_skipped(filt: FilterNode) -> None:
    """Wrap the filter's subtree in a ``"skipped"`` mark node.

    The code generator bypasses marked subtrees; Algorithm 2 uses this to
    disable the original schedule of a fused intermediate space.
    """
    if isinstance(filt.child, MarkNode) and filt.child.mark == SKIPPED:
        return
    filt.child = MarkNode(SKIPPED, filt.child)


def unmark_skipped(filt: FilterNode) -> None:
    """Remove a ``"skipped"`` mark (Algorithm 3 un-fuses shared spaces)."""
    if isinstance(filt.child, MarkNode) and filt.child.mark == SKIPPED:
        filt.child = filt.child.child


def is_skipped(filt: FilterNode) -> bool:
    return isinstance(filt.child, MarkNode) and filt.child.mark == SKIPPED


def insert_extension_below(
    band: BandNode,
    extension: UnionMap,
    extension_subtree: Node,
) -> ExtensionNode:
    """Insert ``extension`` under ``band``, sequencing the added statements
    before the band's original subtree (tile-wise fusion, Fig. 5).

    The added statements are scheduled by ``extension_subtree`` (typically a
    copy of their original band).  Returns the new extension node.
    """
    original = band.child if band.child is not None else LeafNode()
    added = tuple(dict.fromkeys(out for _, out in extension.maps))
    ext_filter = FilterNode(list(added), extension_subtree)
    original_stmts = _statements_below(original, fallback=band.statements())
    orig_filter = FilterNode(original_stmts, original)
    seq = SequenceNode([ext_filter, orig_filter])
    ext_node = ExtensionNode(extension, seq)
    band.child = ext_node
    return ext_node


def _statements_below(node: Node, fallback: Sequence[str]) -> Tuple[str, ...]:
    stmts: List[str] = []
    for n in node.walk():
        if isinstance(n, FilterNode):
            for s in n.statements:
                if s not in stmts:
                    stmts.append(s)
        elif isinstance(n, BandNode):
            for s in n.statements():
                if s not in stmts:
                    stmts.append(s)
    return tuple(stmts) if stmts else tuple(fallback)


def insert_mark_above_child(node: Node, mark: str) -> MarkNode:
    """Wrap ``node.child`` in a mark node (e.g. "kernel"/"thread" for GPU)."""
    m = MarkNode(mark, node.child)
    node.child = m
    return m


def collect_bands(root: Node) -> List[BandNode]:
    return [n for n in root.walk() if isinstance(n, BandNode)]


def tree_statements(root: Node) -> Tuple[str, ...]:
    return _statements_below(root, fallback=())
