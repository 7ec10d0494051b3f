"""Loop order inside a tile: a parallel point loop goes beneath the
reduction it feeds when that makes the reduction's accesses unit-stride.

The scheduler leaves a reduction's own band innermost, beneath the point
band that indexes the element it reduces into: ``for j { init; for k:
update }``.  In a contraction (``D[i][j] += tmp[i][k] * C[k][j]``) every
``+=`` then walks ``C`` down a column.  :func:`sink_unit_stride` is the one
tree rewrite that changes this, for the C backend only: it distributes the
point band's innermost dimension ``j`` over the band's sequence, one
one-dimensional band per filter, and in a chosen reduction's filter puts
that band beneath the reduction band: ``for j: init; for k: for j:
update``.  A band left with no dimension goes away.

**Where it fires.**  A point band (untiled) with at least one enclosing
loop, no mark and no extension beneath it, a coincident innermost dimension
``j`` and a sequence for a child; in that sequence, a filter over one
``REDUCE`` statement whose child is the statement's own reduction band
(innermost dimension ``k``) and nothing else.  An outermost band never
moves, so the loops that can carry ``#pragma omp parallel for`` are the
same ones.

**The rule** (dimension matching, no search).  Count the statement's
strided accesses, its target included, once with ``k`` innermost and once
with ``j`` innermost.  In row-major order an access is unit-stride in an
iterator that appears only in its last index, with coefficient ±1,
invariant in one that appears in no index, and strided otherwise.  ``j``
sinks unless that makes the count larger: a contraction's column walk
becomes a row walk, and a 3x3 convolution, unit-stride either way, runs
``w`` beneath its window.  A tie sinks because only then is the innermost
loop coincident: the C backend marks exactly such a loop ``#pragma omp
simd``, and a 3-iteration window loop is no vector loop.  Built scalar,
the sunk convolution was the slower order; vectorised it is the faster
(EXPERIMENTS.md, "Tiles run at the host's vector width").

**Why it is exact.**  ``j`` is coincident: no dependence that the
enclosing loops leave unsatisfied crosses two of its values, so running
the filters' ``j`` ranges one after the other and interchanging ``j`` with
``k`` reorders only independent instances.  Each element still
accumulates in ``k`` order, so the live-outs are bit-identical.  The
rewrite copies only the nodes on the paths it changes; the input tree is
left as it was.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..ir import REDUCE, Load, Program, Statement
from ..presburger import LinExpr
from ..schedule import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    Node,
    SequenceNode,
    SKIPPED,
)


@dataclass(frozen=True)
class Sunk:
    """A statement whose update now runs ``j`` innermost, beneath ``k``."""

    stmt: str
    j: str                        # the point band's dimension that moved
    k: str                        # the reduction band's innermost dimension

    def __str__(self) -> str:
        return f"{self.stmt}: {self.j} beneath {self.k}"


def sink_unit_stride(
    tree: DomainNode, program: Program
) -> Tuple[DomainNode, Tuple[Sunk, ...]]:
    """``tree`` with every point loop sunk that the rule picks (see the
    module docstring), and what was sunk; ``tree`` itself when nothing
    was."""
    sunk: List[Sunk] = []
    child = _visit(tree.child, program, False, sunk)
    if child is tree.child:
        return tree, ()
    return DomainNode(tree.domain, child), tuple(sunk)


def _visit(node: Optional[Node], program: Program, enclosed: bool, sunk: List[Sunk]):
    """``node`` rewritten bottom-up; ``enclosed``: a band encloses it."""
    if node is None or isinstance(node, MarkNode) and node.mark == SKIPPED:
        return node
    if isinstance(node, SequenceNode):
        filters = [_visit(f, program, enclosed, sunk) for f in node.filters]
        if all(a is b for a, b in zip(filters, node.filters)):
            return node
        return SequenceNode(filters)
    child = _visit(node.child, program, enclosed or isinstance(node, BandNode), sunk)
    if child is not node.child:
        node = _with_child(node, child)
    if isinstance(node, BandNode) and enclosed:
        node = _sink(node, program, sunk)
    return node


def _with_child(node: Node, child: Optional[Node]) -> Node:
    out = copy.copy(node)
    out.child = child
    return out


def _sink(band: BandNode, program: Program, sunk: List[Sunk]) -> Node:
    """``band`` with its innermost dimension distributed over its sequence
    and sunk beneath each reduction that wins, or ``band`` when none does."""
    seq = band.child
    if (
        band.tile_sizes is not None
        or not any(band.coincident[-1:])
        or not isinstance(seq, SequenceNode)
        or any(s not in band.schedules for f in seq.filters for s in f.statements)
        or any(isinstance(n, (MarkNode, ExtensionNode)) for n in band.walk())
    ):
        return band
    j = band.dim_names[-1]
    beneath = [_reduction_won(f, band, program) for f in seq.filters]
    if not any(beneath):
        return band
    filters = []
    for f, k in zip(seq.filters, beneath):
        rows = {s: (band.schedules[s][-1],) for s in f.statements}
        if k is None:
            filters.append(FilterNode(f.statements, _j_band(band, rows, f.child)))
            continue
        reduction = f.child
        filters.append(
            FilterNode(f.statements, _with_child(reduction, _j_band(band, rows, reduction.child)))
        )
        sunk.append(Sunk(f.statements[0], j, k))
    if band.n_dims == 1:
        return SequenceNode(filters)
    return BandNode(
        {s: rows[:-1] for s, rows in band.schedules.items()},
        band.dim_names[:-1],
        band.permutable,
        band.coincident[:-1],
        SequenceNode(filters),
    )


def _j_band(band: BandNode, rows, child: Optional[Node]) -> BandNode:
    """The one-dimensional band of ``band``'s innermost dimension."""
    return BandNode(rows, band.dim_names[-1:], band.permutable, band.coincident[-1:], child)


def _reduction_won(filt: FilterNode, band: BandNode, program: Program) -> Optional[str]:
    """The innermost dimension of ``filt``'s reduction band when ``band``'s
    innermost dimension should go beneath it, else None."""
    if len(filt.statements) != 1:
        return None
    stmt = program.statement(filt.statements[0])
    reduction = filt.child
    if (
        stmt.kind != REDUCE
        or not isinstance(reduction, BandNode)
        or reduction.tile_sizes is not None
        or set(reduction.schedules) != {stmt.name}
        or not (reduction.child is None or isinstance(reduction.child, LeafNode))
    ):
        return None
    j = _iterator(band.schedules[stmt.name][-1], stmt)
    k = _iterator(reduction.schedules[stmt.name][-1], stmt)
    if j is None or k is None:
        return None
    accesses = [stmt.lhs, *stmt.rhs.loads()]
    if _strided(accesses, j) <= _strided(accesses, k):
        return reduction.dim_names[-1]
    return None


def _iterator(row: LinExpr, stmt: Statement) -> Optional[str]:
    """The one iterator of ``stmt`` a schedule row steps by ±1, if any."""
    used = [d for d in stmt.dims if row.coeff(d)]
    if len(used) == 1 and abs(row.coeff(used[0])) == 1:
        return used[0]
    return None


def _strided(accesses: Sequence[Load], it: str) -> int:
    """How many of ``accesses`` are neither unit-stride nor invariant in
    ``it``, in row-major order."""
    return sum(
        1
        for a in accesses
        if any(i.coeff(it) for i in a.indices[:-1])
        or (a.indices and abs(a.indices[-1].coeff(it)) > 1)
    )
