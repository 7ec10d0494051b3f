"""Upwards-exposed data extraction (Section III-A).

The *upwards-exposed data* of a computation space are the elements it reads
that are defined by other computation spaces — the data that must either
travel through slow memory (unfused) or be recomputed/kept in fast memory
(fused).  They are computed from the access relations and the program's
producer/consumer structure; no rescheduling is involved.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..ir import Program
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

    Returned consumers-first by their dependences (the order Algorithm 1
    fuses them in; see :func:`_consumers_first`).
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
    return _consumers_first(program, result)


def _consumers_first(program: Program, groups: List[FusionGroup]) -> List[FusionGroup]:
    """``groups`` in reverse topological order — consumers strictly before
    their producers — so Algorithm 1 registers a consumer's footprint needs
    before fusing the producer, and Algorithm 2 splices producers *above*
    (i.e. executing before) their consumers.

    Among the groups whose consumers are all placed, the one with the
    latest member statement goes next.  Program order is topological, but
    a group's latest statement alone is not: a group may hold a statement
    that runs after one of its consumers (a dead stage fused with the
    producer it reads).  A cycle, which a legal grouping cannot have,
    falls back to that key."""

    def latest(g: FusionGroup) -> int:
        return max(program.statement_index(s) for s in g.statements)

    group_of = {s: id(g) for g in groups for s in g.statements}
    consumers = {
        id(g): {
            group_of[reader.name]
            for s in g.statements
            for reader in program.readers_of(program.statement(s).tensor_written())
            if reader.name in group_of
        }
        - {id(g)}
        for g in groups
    }
    placed: Set[int] = set()
    order: List[FusionGroup] = []
    remaining = sorted(groups, key=latest, reverse=True)
    while remaining:
        nxt = next((g for g in remaining if consumers[id(g)] <= placed), remaining[0])
        order.append(nxt)
        placed.add(id(nxt))
        remaining.remove(nxt)
    return order
