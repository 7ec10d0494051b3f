"""``repro.schedule`` — schedule trees and their transformations."""

from .build import initial_tree
from .transform import (
    SKIPPED,
    insert_extension_below,
    mark_skipped,
    top_level_filters,
)
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

__all__ = [
    "BandNode",
    "DomainNode",
    "ExtensionNode",
    "FilterNode",
    "LeafNode",
    "MarkNode",
    "Node",
    "SKIPPED",
    "SequenceNode",
    "initial_tree",
    "insert_extension_below",
    "mark_skipped",
    "top_level_filters",
]
