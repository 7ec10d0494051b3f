"""Schedule tree manipulation utilities.

These are the primitives Algorithm 2 composes: node insertion below a
band, subtree skipping via mark nodes, and the top-level filters.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
