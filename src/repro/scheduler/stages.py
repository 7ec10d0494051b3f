"""Fusion groups (computation spaces) and their schedule-tree realisation.

A :class:`FusionGroup` is one *computation space* in the paper's sense: a
set of statements scheduled under a common outer band.  The start-up fusion
heuristics in :mod:`repro.scheduler.fusion` produce lists of groups; the
paper's Algorithms 1–3 then tile and re-fuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import Program
from ..presburger import LinExpr
from ..schedule import (
    BandNode,
    DomainNode,
    FilterNode,
    LeafNode,
    Node,
    SequenceNode,
)


@dataclass
class FusionGroup:
    """One computation space: statements under a shared outer band.

    ``rows[s]`` gives the outer band schedule of statement ``s`` — one
    affine expression (over the statement's own iterators) per band
    dimension, already including any alignment shifts.
    """

    name: str
    statements: List[str]
    depth: int
    rows: Dict[str, Tuple[LinExpr, ...]]
    coincident: List[bool]
    permutable: bool

    def n_parallel(self) -> int:
        """Parallel dimensions available after legal reordering.

        A permutable band may be reordered to bring coincident dimensions
        outermost (what PPCG's scheduler does), so every coincident dim
        counts; a non-permutable band only offers its leading coincident
        prefix.
        """
        if self.permutable:
            return sum(1 for c in self.coincident if c)
        count = 0
        for c in self.coincident:
            if not c:
                break
            count += 1
        return count

    def parallel_dim_indices(self) -> List[int]:
        """Band positions usable for parallelism (see :meth:`n_parallel`)."""
        if self.permutable:
            return [d for d, c in enumerate(self.coincident) if c]
        out = []
        for d, c in enumerate(self.coincident):
            if not c:
                break
            out.append(d)
        return out

    def __contains__(self, stmt: str) -> bool:
        return stmt in self.statements


def identity_rows(dims: Sequence[str], depth: int) -> Tuple[LinExpr, ...]:
    rows = [LinExpr.var(d) for d in dims[:depth]]
    while len(rows) < depth:
        rows.append(LinExpr.const_expr(0))
    return tuple(rows)


def group_band(
    program: Program, group: FusionGroup, band_prefix: Optional[str] = None
) -> BandNode:
    """Build the band subtree of a fusion group.

    The outer band carries the group's fused dimensions; below it, a
    sequence of per-statement filters (in program order) holds inner bands
    for the statements' remaining iterators (e.g. reduction loops).
    """
    prefix = band_prefix or group.name
    inner = _inner_subtree(program, group)
    return BandNode(
        {s: list(group.rows[s]) for s in group.statements},
        dim_names=[f"{prefix}_t{d}" for d in range(group.depth)],
        permutable=group.permutable,
        coincident=list(group.coincident),
        child=inner,
    )


def _inner_subtree(program: Program, group: FusionGroup) -> Node:
    ordered = sorted(group.statements, key=program.statement_index)
    filters = []
    for s in ordered:
        stmt = program.statement(s)
        remaining = stmt.dims[group.depth :]
        if remaining:
            child: Node = BandNode(
                {s: [LinExpr.var(d) for d in remaining]},
                dim_names=[f"{s}_p{d}" for d in range(len(remaining))],
                permutable=True,
                coincident=[False] * len(remaining),
                child=LeafNode(),
            )
        else:
            child = LeafNode()
        filters.append(FilterNode([s], child))
    if len(filters) == 1:
        return filters[0].child  # single statement: no inner sequence needed
    return SequenceNode(filters)


def groups_tree(program: Program, groups: Sequence[FusionGroup]) -> DomainNode:
    """The schedule tree realising a list of fusion groups in order."""
    filters = []
    for g in groups:
        band = group_band(program, g)
        ordered = sorted(g.statements, key=program.statement_index)
        filters.append(FilterNode(ordered, band))
    return DomainNode(program.domains(), SequenceNode(filters))

