"""Statements: the polyhedral unit of computation.

A statement owns an iteration domain (a :class:`Set` whose tuple name is the
statement name), a single tensor write, and a scalar right-hand side.  Access
relations are *derived* from the expression tree rather than declared, so
they can never drift out of sync with what the interpreter executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..presburger import (
    BasicMap,
    LinExpr,
    Map,
    MapSpace,
    Set,
    UnionMap,
    fresh_names,
    memo,
)
from .expr import Expr, Load

ASSIGN = "assign"
REDUCE = "reduce"

# Access relations are derived per call, but dependence analysis probes the
# same statement pair many times and the autotuner replays whole passes, so
# the derivations repeat verbatim.  Statements are immutable (the contract
# is stated once, in :class:`~repro.ir.program.Program`); the memo keys are
# structural (domain space + constraints + access exprs) all the same, so
# that equal statements of separately built programs share one entry.
_ACCESS_MEMO = memo.table("access_map")
_READS_MEMO = memo.table("read_relations")


class Statement:
    """One statement: ``lhs = rhs`` or ``lhs += rhs`` over a domain."""

    def __init__(
        self,
        name: str,
        domain: Set,
        lhs: Load,
        rhs: Expr,
        kind: str = ASSIGN,
        reduce_op: str = "+",
    ):
        if domain.space.name != name:
            raise ValueError(
                f"domain tuple name {domain.space.name!r} != statement name {name!r}"
            )
        if kind not in (ASSIGN, REDUCE):
            raise ValueError(f"bad statement kind {kind!r}")
        self.name = name
        self.domain = domain
        self.lhs = lhs
        self.rhs = rhs
        self.kind = kind
        self.reduce_op = reduce_op

    def __getstate__(self):
        # What the expression tree says (`_ops`, `_tensors_read`) is derived
        # on first use and never pickled, like the program's lookup index.
        state = self.__dict__.copy()
        state.pop("_ops", None)
        state.pop("_tensors_read", None)
        return state

    # -- shape queries -----------------------------------------------------

    @property
    def dims(self) -> Tuple[str, ...]:
        return self.domain.space.dims

    @property
    def params(self) -> Tuple[str, ...]:
        return self.domain.space.params

    def ops_per_instance(self) -> int:
        ops = self.__dict__.get("_ops")
        if ops is None:
            base = self.rhs.op_count()
            if self.kind == REDUCE:
                base += 1  # the accumulate
            ops = self._ops = max(base, 1)
        return ops

    # -- access relations ---------------------------------------------------

    def _access_map(self, tensor: str, indices: Sequence[LinExpr]) -> Map:
        key = (
            self.domain.space,
            tuple(p.constraints for p in self.domain.pieces),
            tensor,
            tuple(indices),
        )
        cached = _ACCESS_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        pieces = []
        out_dims: Optional[Tuple[str, ...]] = None
        for dpiece in self.domain.pieces:
            bmap = BasicMap.from_exprs(
                self.name,
                self.dims,
                tensor,
                list(indices),
                params=self.params,
                out_dims=out_dims,
                domain=dpiece,
            )
            out_dims = bmap.space.out_dims
            pieces.append(bmap)
        if out_dims is None:
            out_dims = fresh_names(
                [f"o{i}" for i in range(len(indices))], list(self.dims) + list(self.params)
            )
        space = MapSpace(self.name, self.dims, tensor, out_dims, self.params)
        return _ACCESS_MEMO.put(key, Map(space, pieces))

    def write_relation(self) -> Map:
        return self._access_map(self.lhs.tensor, self.lhs.indices)

    def read_loads(self) -> List[Load]:
        loads = list(self.rhs.loads())
        if self.kind == REDUCE:
            loads.append(self.lhs)
        return loads

    def read_relations(self) -> UnionMap:
        loads = self.read_loads()
        key = (
            self.domain.space,
            tuple(p.constraints for p in self.domain.pieces),
            tuple((l.tensor, tuple(l.indices)) for l in loads),
        )
        cached = _READS_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        by_tensor: Dict[str, Map] = {}
        for load in loads:
            m = self._access_map(load.tensor, load.indices)
            tensor = load.tensor
            if tensor in by_tensor:
                prev = by_tensor[tensor]
                rename = dict(zip(m.space.out_dims, prev.space.out_dims))
                by_tensor[tensor] = prev.union(m.rename_dims(rename))
            else:
                by_tensor[tensor] = m
        return _READS_MEMO.put(key, UnionMap(list(by_tensor.values())))

    def tensors_read(self) -> Tuple[str, ...]:
        read = self.__dict__.get("_tensors_read")
        if read is None:
            read = self._tensors_read = tuple(
                dict.fromkeys(l.tensor for l in self.read_loads())
            )
        return read

    def tensor_written(self) -> str:
        return self.lhs.tensor

    def __repr__(self):
        sym = "+=" if self.kind == REDUCE else "="
        return f"Statement({self.name}: {self.lhs} {sym} {self.rhs})"
