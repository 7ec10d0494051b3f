"""Parallelism (coincidence) and permutability detection.

A band dimension is *coincident* (parallel) when every dependence between
statements of the group has distance exactly zero at that dimension; the
band is *permutable* (tilable) when every dependence has non-negative
distance at every band dimension.  Distances are computed exactly from the
dependence relations.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..deps import Dependence, dep_distance_bounds, row_distance
from ..presburger import LinExpr


class BandDistances:
    """Band queries over one dependence list, each row distance computed once.

    The distance of a dependence at one band row does not depend on the
    other rows, so a result kept per (position in ``deps``, source row,
    target row) serves every prefix depth and every candidate group that
    asks again.  Made per scheduling call; never part of a result.
    """

    def __init__(self, deps: Sequence[Dependence], params: Mapping[str, int]):
        self.deps = deps
        self.params = params
        self._pieces: Dict[int, Sequence] = {}
        self._rows: Dict[tuple, Tuple[Optional[int], Optional[int]]] = {}

    def _distance(self, k: int, s_row: LinExpr, d_row: LinExpr):
        key = (k, s_row, d_row)
        found = self._rows.get(key)
        if found is None:
            dep = self.deps[k]
            if k not in self._pieces:
                self._pieces[k] = dep.relation.fix_params(self.params).pieces
            found = self._rows[key] = row_distance(
                dep, self._pieces[k], s_row, d_row
            )
        return found

    def scan(
        self,
        members: Sequence[str],
        rows: Mapping[str, Sequence[LinExpr]],
        depth: int,
    ) -> Tuple[List[bool], List[bool]]:
        """Per band dimension, over the dependences inside ``members``:
        is every distance zero, and is every distance non-negative?"""
        members = set(members)
        zero = [True] * depth
        forward = [True] * depth
        for k, dep in enumerate(self.deps):
            if dep.source not in members or dep.target not in members:
                continue
            src_rows, dst_rows = rows[dep.source], rows[dep.target]
            for d in range(depth):
                lo, hi = self._distance(k, src_rows[d], dst_rows[d])
                if lo != 0 or hi != 0:
                    zero[d] = False
                if lo is None or lo < 0:
                    forward[d] = False
        return zero, forward

    def band_attributes(self, members, rows, depth) -> Tuple[List[bool], bool]:
        coincident, forward = self.scan(members, rows, depth)
        return coincident, all(forward)


def band_attributes(
    deps: Sequence[Dependence],
    members: Sequence[str],
    rows: Mapping[str, Sequence[LinExpr]],
    depth: int,
    params: Mapping[str, int],
) -> Tuple[List[bool], bool]:
    """``(coincident, permutable)`` of a candidate fused band.

    Only dependences with both endpoints inside ``members`` constrain the
    band; dependences crossing group boundaries are satisfied by the group
    sequence order.
    """
    return BandDistances(deps, params).band_attributes(members, rows, depth)


def required_shifts(
    deps: Sequence[Dependence],
    members_in_order: Sequence[str],
    dims_of: Mapping[str, Sequence[str]],
    depth: int,
    params: Mapping[str, int],
) -> Dict[str, Tuple[int, ...]]:
    """Per-statement shifts making all intra-group distances non-negative.

    Processes statements in program order (a topological order of the
    forward dependence graph) and accumulates, per band dimension, the
    shift needed so that ``shifted_dst - shifted_src >= 0`` for every
    dependence.  This is the alignment maxfuse applies before fusing
    stencil producers and consumers.
    """
    shifts: Dict[str, List[int]] = {s: [0] * depth for s in members_in_order}
    member_set = set(members_in_order)
    order = {s: i for i, s in enumerate(members_in_order)}
    for dst in members_in_order:
        for dep in deps:
            if dep.target != dst or dep.source not in member_set:
                continue
            if order[dep.source] > order[dst]:
                continue
            src_rows = [
                LinExpr.var(d) + shifts[dep.source][i]
                for i, d in enumerate(dims_of[dep.source][:depth])
            ]
            src_rows += [LinExpr.const_expr(0)] * (depth - len(src_rows))
            dst_rows = [
                LinExpr.var(d) for d in dims_of[dst][:depth]
            ]
            dst_rows += [LinExpr.const_expr(0)] * (depth - len(dst_rows))
            bounds = dep_distance_bounds(dep, src_rows, dst_rows, params)
            for d in range(depth):
                lo, _hi = bounds[d]
                if lo is not None and lo < 0:
                    # distance with shifts is (dst_row + shift_dst) -
                    # (src_row + shift_src); bounds already include
                    # shift_src, so shift_dst >= -lo restores legality.
                    shifts[dst][d] = max(shifts[dst][d], -lo)
    return {s: tuple(v) for s, v in shifts.items()}
