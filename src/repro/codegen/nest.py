"""One scan of a schedule tree into an immutable loop nest.

What a schedule tree *means* is decided here and nowhere else in
``repro.codegen``: :func:`scan` is the only code that pattern-matches on
band, filter, sequence, extension and mark nodes (``gpu_mapping`` and
``loop_order`` rewrite trees; they do not read them).  It walks the tree
once, carrying per statement the pieces (conjunctions) of its instance
set, and returns

* a :class:`Loop` per band dimension, carrying per member piece the system
  in force when the loop opens and the piece's schedule row; beneath it
  every member is pinned, ``var == row`` in a point band and
  ``var <= row < var + size`` in a tile band.  ``parallel`` (coincident,
  no enclosing loop) is what a reader may run in parallel; the C backend
  decides whether it does;
* a :class:`Seq` per sequence node; a filter that leaves no statement is
  an empty :class:`Leaf`, so a child's position is its index;
* a :class:`Leaf` with the pieces that run there and their full systems;
* a :class:`Mark` (beneath ``SKIPPED`` nothing runs: an empty leaf) and an
  :class:`Extension` scope, beneath which the added statements run on the
  extension relation's instances, its input dims renamed to the enclosing
  loops' variables: a reader can announce either or promote beneath the
  latter.

The scan has exactly two configurations, chosen by whether ``params`` is
given and by nothing else:

* **display** (``params is None``, for ``print_tree``): parameters stay
  symbolic, a loop variable is the sanitized band dim name, pieces are the
  sets' own;
* **executable** (``generate_c``, ``build_streams``):
  parameters are fixed, variables are numbered ``c<n>_<dim>`` in scan
  order, and a statement that reads the tensor it writes has its pieces
  made pairwise disjoint so that no instance runs twice.

There is no third, and the two cannot share more: Fourier–Motzkin
eliminates symbols in sorted name order and every emitted ``max``/``min``
lists its operands in the order that produces, so the spelling of a loop
variable is part of each printer's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from ..ir import Program, Statement
from ..presburger import Constraint, LinExpr
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

System = Tuple[Constraint, ...]


class ScanError(ValueError):
    """The tree is not one a loop nest can be read from."""


@dataclass(frozen=True, eq=False)
class Piece:
    """One conjunction of a statement's instances; as a loop member, with
    the row of the statement's schedule the loop scans."""

    stmt: str
    system: System
    row: Optional[LinExpr] = None


@dataclass(frozen=True, eq=False)
class Leaf:
    pieces: Tuple[Piece, ...] = ()


@dataclass(frozen=True, eq=False)
class Seq:
    children: Tuple["Nest", ...]


@dataclass(frozen=True, eq=False)
class Mark:
    mark: str
    body: "Nest"


@dataclass(frozen=True, eq=False)
class Extension:
    added: Tuple[str, ...]
    outer: Tuple[str, ...]        # enclosing loop variables
    pieces: Tuple[Piece, ...]     # everything active as the scope opens
    body: "Nest"


@dataclass(frozen=True, eq=False)
class Loop:
    var: str
    dim: str                      # the band's name for this dimension
    index: int                    # position within its band
    last: bool                    # the band's innermost dimension
    size: Optional[int]           # tile size; None for a point loop
    coincident: bool
    parallel: bool
    outer: Tuple[str, ...]        # enclosing loop variables
    members: Tuple[Piece, ...]
    body: "Nest"


Nest = Union[Leaf, Seq, Mark, Extension, Loop]


def inner(node: Nest) -> Tuple[Nest, ...]:
    """The nests directly beneath ``node``."""
    if isinstance(node, Leaf):
        return ()
    return node.children if isinstance(node, Seq) else (node.body,)


def sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def scan(
    tree: DomainNode, program: Program, params: Optional[Mapping[str, int]] = None
) -> Nest:
    """The loop nest ``tree`` describes (see the module docstring)."""
    scanner = _Scan(program, params)
    active = {
        name: scanner.systems(program.statement(name), program.statement(name).domain)
        for name in tree.domain.names()
    }
    return scanner.visit(tree.child, active, {}, ())


def _run_once(stmt: Statement, instances):
    """The pieces of ``instances`` (a Set or Map of ``stmt``'s instances) to
    emit one after the other.  A statement that reads the tensor it writes
    (a reduction, an in-place update) must not run an instance twice, so
    its pieces are made pairwise disjoint: each minus the earlier ones it
    overlaps.  For any other statement a repeat rewrites the same value."""
    if stmt.tensor_written() not in stmt.tensors_read():
        return list(instances.pieces)
    make = type(instances)
    out = []
    for i, piece in enumerate(instances.pieces):
        overlapped = [
            p for p in instances.pieces[:i] if not piece.intersect(p).is_empty()
        ]
        if not overlapped:
            out.append(piece)
            continue
        rest = make(instances.space, [piece]).subtract(make(instances.space, overlapped))
        out.extend(p for p in rest.pieces if not p.is_empty())
    return out


Active = Dict[str, Tuple[System, ...]]  # statement -> the systems of its pieces


def _pieces(active: Active) -> Tuple[Piece, ...]:
    return tuple(Piece(s, system) for s, systems in active.items() for system in systems)


class _Scan:
    def __init__(self, program: Program, params: Optional[Mapping[str, int]]):
        self.program = program
        self.params = params
        self.loops = 0

    def systems(self, stmt: Statement, instances) -> Tuple[System, ...]:
        """``instances`` (a Set or Map of ``stmt``'s) as this configuration
        reads it, one list of its pieces' constraints per piece."""
        if self.params is None:
            return tuple(p.constraints for p in instances.pieces)
        pieces = _run_once(stmt, instances.fix_params(self.params))
        return tuple(p.constraints for p in pieces)

    def visit(
        self,
        node: Optional[Node],
        active: Active,
        bands: Mapping[str, str],
        outer: Tuple[str, ...],
    ) -> Nest:
        """``bands``: enclosing band dim name -> its loop variable;
        ``outer``: the enclosing loop variables, outermost first."""
        if node is None or isinstance(node, LeafNode):
            return Leaf(_pieces(active))
        if isinstance(node, MarkNode):
            if node.mark == SKIPPED:
                return Mark(SKIPPED, Leaf())
            return Mark(node.mark, self.visit(node.child, active, bands, outer))
        if isinstance(node, FilterNode):
            sub = {s: c for s, c in active.items() if s in node.statements}
            return self.visit(node.child, sub, bands, outer) if sub else Leaf()
        if isinstance(node, SequenceNode):
            return Seq(tuple(self.visit(f, active, bands, outer) for f in node.filters))
        if isinstance(node, ExtensionNode):
            active = dict(active)
            for (_, sname), m in node.extension.maps.items():
                stmt = self.program.statement(sname)
                rename = dict(zip(m.space.out_dims, stmt.dims))
                for in_dim in m.space.in_dims:
                    if in_dim not in bands:
                        raise ScanError(
                            f"extension tile dim {in_dim!r} does not match "
                            f"any enclosing band dim ({list(bands)})"
                        )
                    rename[in_dim] = bands[in_dim]
                active[sname] = tuple(
                    tuple(c.rename(rename) for c in system)
                    for system in self.systems(stmt, m)
                )
            body = self.visit(node.child, active, bands, outer)
            return Extension(node.added_statements(), outer, _pieces(active), body)
        if isinstance(node, BandNode):
            return self.band(node, 0, active, bands, outer)
        raise ScanError(f"unexpected node {type(node).__name__}")

    def band(
        self, band: BandNode, d: int, active: Active, bands: Mapping[str, str], outer
    ) -> Nest:
        """The loops of ``band``'s dimensions ``d`` and deeper."""
        if d == band.n_dims:
            return self.visit(band.child, active, bands, outer)
        self.loops += 1
        dim = band.dim_names[d]
        var = sanitize(dim)
        if self.params is not None:
            var = f"c{self.loops}_{var}"
        size = None if band.tile_sizes is None else band.tile_sizes[d]
        kv = LinExpr.var(var)
        members = []
        pinned = dict(active)
        for sname, systems in active.items():
            if sname not in band.schedules:
                continue
            row = band.schedules[sname][d]
            if self.params is not None:
                row = row.substitute(self.params)
            members += [Piece(sname, system, row) for system in systems]
            if size is None:
                pin = (Constraint.eq(kv - row),)
            else:
                pin = (Constraint.le(kv, row), Constraint.lt(row, kv + size))
            pinned[sname] = tuple(system + pin for system in systems)
        body = self.band(band, d + 1, pinned, {**bands, dim: var}, outer + (var,))
        coincident = bool(band.coincident[d])
        return Loop(
            var, dim, d, d == band.n_dims - 1, size, coincident,
            coincident and not outer, outer, tuple(members), body,
        )
