"""Upwards-exposed data extraction (Section III-A).

The *upwards-exposed data* of a computation space are the elements it reads
that are defined by other computation spaces — the data that must either
travel through slow memory (unfused) or be recomputed/kept in fast memory
(fused).  They are computed from the access relations and the program's
producer/consumer structure; no rescheduling is involved.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..ir import Program
from ..presburger import Map, UnionMap
from ..scheduler import FusionGroup
from .. import obs


def exposed_tensors(
    program: Program, group: FusionGroup, within: Sequence[FusionGroup]
) -> Tuple[str, ...]:
    """Tensors read by ``group`` but written by another group of ``within``."""
    members = set(group.statements)
    read = {
        t
        for s in group.statements
        for t in program.statement(s).tensors_read()
    }
    produced_elsewhere = set()
    for other in within:
        if other is group:
            continue
        for s in other.statements:
            if s in members:
                continue
            produced_elsewhere.add(program.statement(s).tensor_written())
    exposed = tuple(sorted(read & produced_elsewhere))
    if exposed:
        obs.count("exposed.tensors", len(exposed))
    return exposed


def upwards_exposed_reads(
    program: Program, group: FusionGroup, tensors: Sequence[str]
) -> UnionMap:
    """The read access relations of ``group`` restricted to ``tensors``."""
    out: List[Map] = []
    for s in group.statements:
        stmt = program.statement(s)
        for (_, tensor), access in stmt.read_relations().maps.items():
            if tensor in tensors:
                out.append(access)
    return UnionMap(out)


def producers_of_tensors(
    program: Program,
    tensors: Sequence[str],
    groups: Sequence[FusionGroup],
    exclude: FusionGroup,
) -> List[FusionGroup]:
    """Groups (other than ``exclude``) that write any of ``tensors``."""
    out = []
    for g in groups:
        if g is exclude:
            continue
        writes = {program.statement(s).tensor_written() for s in g.statements}
        if writes & set(tensors):
            out.append(g)
    return out


def intermediate_groups_of(
    program: Program,
    liveout_group: FusionGroup,
    groups: Sequence[FusionGroup],
) -> List[FusionGroup]:
    """Transitive producers of ``liveout_group`` among ``groups``.

    Returned nearest-producer-first (the order Algorithm 1 fuses them in).
    Groups that are themselves live-out are *not* included — the paper
    never fuses two live-out computation spaces (Section IV-C).
    """
    liveout_tensors = set(program.liveout)

    def is_liveout(g: FusionGroup) -> bool:
        return any(
            program.statement(s).tensor_written() in liveout_tensors
            for s in g.statements
        )

    result: List[FusionGroup] = []
    frontier = [liveout_group]
    seen = {id(liveout_group)}
    while frontier:
        current = frontier.pop(0)
        needed = exposed_tensors(program, current, groups)
        for producer in producers_of_tensors(program, needed, groups, current):
            if id(producer) in seen or is_liveout(producer):
                continue
            seen.add(id(producer))
            result.append(producer)
            frontier.append(producer)
    # Reverse topological order — consumers strictly before their
    # producers — so Algorithm 1 registers a consumer's footprint needs
    # before fusing the producer, and Algorithm 2 splices producers
    # *above* (i.e. executing before) their consumers.  Program order is
    # topological (dependences only point forward), so sorting by the
    # latest member statement descending is a valid reverse-topological
    # order.
    result.sort(
        key=lambda g: max(program.statement_index(s) for s in g.statements),
        reverse=True,
    )
    return result
