"""Construction of initial schedule trees from programs."""

from __future__ import annotations

from typing import List

from ..ir import Program
from ..presburger import LinExpr
from .tree import BandNode, DomainNode, FilterNode, LeafNode, SequenceNode


def initial_tree(program: Program) -> DomainNode:
    """The textual-order schedule tree: one filter + band per statement.

    Mirrors the paper's Fig. 2(a): a domain node, a sequence over the
    statements in program order, and an identity band over each statement's
    own iterators.
    """
    filters: List[FilterNode] = []
    for stmt in program.statements:
        band = BandNode(
            {stmt.name: [LinExpr.var(d) for d in stmt.dims]},
            dim_names=[f"{stmt.name}_d{i}" for i in range(len(stmt.dims))],
            permutable=False,
            coincident=[False] * len(stmt.dims),
            child=LeafNode(),
        )
        filters.append(FilterNode([stmt.name], band))
    return DomainNode(program.domains(), SequenceNode(filters))
