"""Memory-based dependence analysis.

A dependence relation relates the instances of two statements that touch
one tensor element:

* flow (RAW): a write and a later read;
* anti (WAR): a read and a later write;
* output (WAW): two writes to the same tensor.

Each relation is written down from the two statements' index expressions
and domain pieces (``f(i) == g(j)`` per tensor dimension), not composed
from access maps: it is exactly the substitution that composing
``{ i -> o : o = f(i) }`` with ``{ o -> j : o = g(j) }`` would perform.

"Later" is the program's initial (textual) schedule: the statement order,
refined by lexicographic order on shared iteration dimensions for
self-dependences (the reduction case).

Distance vectors over aligned loop dimensions drive all parallelism and
tilability decisions in :mod:`repro.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir import Program, Statement
from ..presburger import BasicMap, Constraint, LinExpr, Map, MapSpace, fresh_names
from ..presburger.fm import bounds_for_symbol, eliminate_symbols

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"

@dataclass
class Dependence:
    """One dependence: instances of ``source`` must run before ``target``.

    ``src_dims``/``dst_dims`` record the statements' iterator names aligned
    with the relation's in/out dimensions (the out dimensions are freshened
    apart from the source's names).
    """

    source: str
    target: str
    tensor: str
    kind: str
    relation: Map  # { source[i] -> target[j] }
    src_dims: Tuple[str, ...] = ()
    dst_dims: Tuple[str, ...] = ()

    def __repr__(self):
        return f"Dep({self.kind}: {self.source} -> {self.target} via {self.tensor})"


def _lex_lt_pieces(m: Map) -> Map:
    """Restrict a same-space relation to lexicographically increasing pairs.

    in_dims and out_dims are aligned positionally; the result is the union
    over positions k of { equal on dims < k, strictly less at k }.
    """
    pieces = []
    in_dims, out_dims = m.space.in_dims, m.space.out_dims
    n = min(len(in_dims), len(out_dims))
    for k in range(n):
        cons: List[Constraint] = []
        for p in range(k):
            cons.append(Constraint.eq(LinExpr.var(in_dims[p]) - LinExpr.var(out_dims[p])))
        cons.append(Constraint.lt(LinExpr.var(in_dims[k]), LinExpr.var(out_dims[k])))
        for bm in m.pieces:
            pieces.append(bm.add_constraints(cons))
    return Map(m.space, pieces)


def _reads(stmt: Statement) -> Dict[str, List[Sequence[LinExpr]]]:
    """Per tensor, the index expressions of each load, in load order."""
    out: Dict[str, List[Sequence[LinExpr]]] = {}
    for load in stmt.read_loads():
        out.setdefault(load.tensor, []).append(load.indices)
    return out


def _relation(
    src: Statement,
    src_indices: Sequence[Sequence[LinExpr]],
    dst: Statement,
    dst_indices: Sequence[Sequence[LinExpr]],
) -> Map:
    """{ src[i] -> dst[j] : an access ``f`` of src and ``g`` of dst touch
    the same element }, one piece per (f, src domain piece, g, dst domain
    piece) in that order: the src piece's constraints, ``f_k(i) - g_k(j)
    == 0`` per tensor dimension, the dst piece's constraints, trivially
    true and repeated ones dropped.  Constraint for constraint and name for
    name, this is what composing the access maps ``{ i -> o : o = f(i) }``
    and ``{ o -> j : o = g(j) }`` builds when FM substitutes ``o = f(i)``
    (for a tensor of rank 0, which eliminates nothing, the composition
    kept repeated constraints).
    """
    taken = src.dims + src.params
    access_dims = fresh_names([f"o{k}" for k in range(len(src_indices[0]))], taken)
    out_dims = fresh_names(dst.dims, taken + access_dims)
    rename = dict(zip(dst.dims, out_dims))
    params = tuple(dict.fromkeys(src.params + dst.params))
    space = MapSpace(src.name, src.dims, dst.name, out_dims, params)
    dst_pieces = [
        tuple(c.rename(rename) for c in p.constraints) for p in dst.domain.pieces
    ]
    dst_indices = [tuple(g.rename(rename) for g in gs) for gs in dst_indices]
    pieces = []
    for fs in src_indices:
        for src_piece in src.domain.pieces:
            for gs in dst_indices:
                same = tuple(Constraint.eq(f - g) for f, g in zip(fs, gs))
                for dst_piece in dst_pieces:
                    cons = src_piece.constraints + same + dst_piece
                    cons = dict.fromkeys(c for c in cons if not c.is_trivially_true())
                    pieces.append(BasicMap._make(space, tuple(cons)))
    return Map(space, pieces)


def memory_deps(
    program: Program, kinds: Iterable[str] = (FLOW, ANTI, OUTPUT)
) -> List[Dependence]:
    """All memory-based dependences of a program under its initial order."""
    kinds = set(kinds)
    deps: List[Dependence] = []
    stmts = program.statements
    writes = [{s.tensor_written(): [s.lhs.indices]} for s in stmts]
    reads = [_reads(s) for s in stmts]
    for i, src in enumerate(stmts):
        src_writes, src_reads = writes[i], reads[i]
        # Only a statement that reads or writes what src writes, or writes
        # what src reads, can depend on it.
        written = src.tensor_written()
        sharing = program.readers_of(written) + program.writers_of(written)
        for t in src_reads:
            sharing += program.writers_of(t)
        later = {program.statement_index(s.name) for s in sharing}
        for j in sorted(j for j in later if j >= i):
            dst = stmts[j]
            same = i == j
            dst_write, dst_reads = writes[j], reads[j]
            pairs = []
            if FLOW in kinds:
                pairs += [
                    (FLOW, t, src_writes[t], dst_reads[t])
                    for t in src_writes
                    if t in dst_reads
                ]
            if ANTI in kinds:
                pairs += [
                    (ANTI, t, src_reads[t], dst_write[t])
                    for t in src_reads
                    if t in dst_write
                ]
            if OUTPUT in kinds:
                pairs += [
                    (OUTPUT, t, src_writes[t], dst_write[t])
                    for t in src_writes
                    if t in dst_write
                ]
            for kind, tensor, src_indices, dst_indices in pairs:
                if same and kind == OUTPUT:
                    continue  # self output dep carries no ordering news
                rel = _relation(src, src_indices, dst, dst_indices)
                if same:
                    rel = _lex_lt_pieces(rel)
                if rel.is_empty():
                    continue
                deps.append(
                    Dependence(
                        src.name, dst.name, tensor, kind, rel, src.dims, dst.dims
                    )
                )
    return deps


def flow_deps(program: Program) -> List[Dependence]:
    return memory_deps(program, kinds=(FLOW,))


def dep_distance_bounds(
    dep: Dependence,
    src_rows: Sequence[LinExpr],
    dst_rows: Sequence[LinExpr],
    params: Mapping[str, int],
) -> List[Tuple[Optional[int], Optional[int]]]:
    """Per-dimension (min, max) of ``dst_row(j) - src_row(i)`` over the dep.

    ``src_rows``/``dst_rows`` are the band schedule rows of the two
    statements, aligned positionally (the fused loop dimensions).  ``None``
    bounds mean unbounded.  An empty dependence yields ``(0, 0)`` rows.
    """
    pieces = dep.relation.fix_params(params).pieces
    return [
        row_distance(dep, pieces, s_row, d_row)
        for s_row, d_row in zip(src_rows, dst_rows)
    ]


def row_distance(
    dep: Dependence, pieces: Sequence, s_row: LinExpr, d_row: LinExpr
) -> Tuple[Optional[int], Optional[int]]:
    """One row of :func:`dep_distance_bounds` over the relation's ``pieces``
    (parameters already fixed).  Rows are independent of each other."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    nonempty = False
    for bm in pieces:
        in_rename = dict(zip(dep.src_dims, bm.space.in_dims))
        out_rename = dict(zip(dep.dst_dims, bm.space.out_dims))
        delta = d_row.rename(out_rename) - s_row.rename(in_rename)
        all_dims = list(bm.space.in_dims) + list(bm.space.out_dims)
        cons = list(bm.constraints) + [
            Constraint.eq(LinExpr.var("__delta") - delta)
        ]
        projected = eliminate_symbols(cons, all_dims)
        if any(c.is_trivially_false() for c in projected):
            continue
        plo, phi = bounds_for_symbol(projected, "__delta", {})
        if plo is not None and phi is not None and plo > phi:
            continue
        nonempty = True
        lo = plo if lo is None else (None if plo is None else min(lo, plo))
        hi = phi if hi is None else (None if phi is None else max(hi, phi))
    return (lo, hi) if nonempty else (0, 0)
