"""Memory-based dependence analysis.

Dependences are computed exactly as relation joins of access maps:

* flow (RAW): a write composed with the reverse of a later read;
* anti (WAR): a read composed with the reverse of a later write;
* output (WAW): two writes to the same tensor.

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
from ..presburger import (
    Constraint,
    LinExpr,
    Map,
    UnionMap,
)
from ..presburger.fm import bounds_for_symbol, eliminate_symbols

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"


@dataclass
class Dependence:
    """One dependence: instances of ``source`` must run before ``target``.

    ``src_dims``/``dst_dims`` record the statements' iterator names aligned
    with the relation's in/out dimensions (whose names may have been
    freshened during composition).
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


def _join(src_access: Map, dst_access: Map) -> Map:
    """{ i -> j : src touches the same element dst touches }."""
    return src_access.apply_range(dst_access.reverse())


def memory_deps(
    program: Program, kinds: Iterable[str] = (FLOW, ANTI, OUTPUT)
) -> List[Dependence]:
    """All memory-based dependences of a program under its initial order."""
    kinds = set(kinds)
    deps: List[Dependence] = []
    stmts = program.statements
    writes = [{s.tensor_written(): s.write_relation()} for s in stmts]
    reads = [
        {key[1]: m for key, m in s.read_relations().maps.items()} for s in stmts
    ]
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
            for kind, tensor, a_map, b_map in pairs:
                rel = _join(a_map, b_map)
                if same:
                    if kind == OUTPUT:
                        continue  # self output dep carries no ordering news
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


def deps_as_union_map(deps: Sequence[Dependence]) -> UnionMap:
    return UnionMap([d.relation for d in deps])


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
        plo, phi, _ = bounds_for_symbol(projected, "__delta", {})
        if plo is not None and phi is not None and plo > phi:
            continue
        nonempty = True
        lo = plo if lo is None else (None if plo is None else min(lo, plo))
        hi = phi if hi is None else (None if phi is None else max(hi, phi))
    return (lo, hi) if nonempty else (0, 0)


def statement_row_map(stmt: Statement, depth: int) -> List[LinExpr]:
    """The first ``depth`` iterators of a statement as schedule rows."""
    rows = [LinExpr.var(d) for d in stmt.dims[:depth]]
    while len(rows) < depth:
        rows.append(LinExpr.const_expr(0))
    return rows


def producer_consumer_tensors(program: Program) -> Dict[Tuple[str, str], List[str]]:
    """Map (producer stmt, consumer stmt) -> tensors flowing between them."""
    table: Dict[Tuple[str, str], List[str]] = {}
    for d in memory_deps(program, kinds=(FLOW,)):
        if d.source == d.target:
            continue
        table.setdefault((d.source, d.target), []).append(d.tensor)
    return table
