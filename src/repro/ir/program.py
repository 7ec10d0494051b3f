"""Programs and the builder DSL used by all pipelines.

A :class:`Program` is an ordered sequence of statements (textual order =
initial schedule), a tensor table, parameter defaults and a set of live-out
tensors.  :class:`ProgramBuilder` offers the small DSL the workloads are
written in::

    b = ProgramBuilder("conv2d", params={"H": 64, "W": 64, "KH": 3, "KW": 3})
    A = b.tensor("A", ("H", "W"))
    h, w = b.iters("h", "w")
    b.assign("S0", (h, w), "0 <= h < H and 0 <= w < W", A[h, w], quant(A[h, w]))
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..presburger import LinExpr, Set, UnionMap, UnionSet, parse_set
from .expr import Load, as_expr
from .statement import ASSIGN, REDUCE, Statement
from .tensor import Tensor


class _Index:
    """name -> (position, statement), tensor -> readers, tensor -> writers."""

    __slots__ = ("by_name", "readers", "writers")

    def __init__(self, statements: Sequence[Statement]):
        self.by_name = {s.name: (i, s) for i, s in enumerate(statements)}
        self.readers: Dict[str, List[Statement]] = {}
        self.writers: Dict[str, List[Statement]] = {}
        for s in statements:
            self.writers.setdefault(s.tensor_written(), []).append(s)
            for t in s.tensors_read():
                self.readers.setdefault(t, []).append(s)


class Program:
    """An ordered statement list with tensors and live-out information.

    **Immutability contract.**  A program and its statements are never
    changed after construction: no field of a :class:`Program` or
    :class:`Statement` is assigned, no statement or tensor added.
    ``workloads._build``'s ``lru_cache``, ``fingerprint_program``'s digest
    memo, the structural access memos in :mod:`.statement`, the compile
    cache and the lookup index below all hand out or key on one instance
    on that assumption.  The index (name -> position and statement, tensor
    -> readers / writers) is built on first use and never pickled, so cache
    blobs and fingerprints do not see it.
    """

    def __init__(
        self,
        name: str,
        statements: Sequence[Statement],
        tensors: Mapping[str, Tensor],
        params: Mapping[str, int],
        liveout: Optional[Iterable[str]] = None,
    ):
        self.name = name
        self.statements = list(statements)
        self.tensors = dict(tensors)
        self.params = dict(params)
        names = [s.name for s in self.statements]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate statement names in {name}: {names}")
        if liveout is None:
            liveout = self._infer_liveout()
        self.liveout = tuple(liveout)
        for t in self.liveout:
            if t not in self.tensors:
                raise ValueError(f"live-out tensor {t!r} not declared")

    def _infer_liveout(self) -> Tuple[str, ...]:
        written = {s.tensor_written() for s in self.statements}
        read = {t for s in self.statements for t in s.tensors_read()}
        return tuple(sorted(written - read))

    # -- lookups -----------------------------------------------------------

    def _index(self) -> _Index:
        index = self.__dict__.get("_lookup")
        if index is None:
            index = self._lookup = _Index(self.statements)
        return index

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lookup", None)
        return state

    def statement(self, name: str) -> Statement:
        return self._index().by_name[name][1]

    def statement_index(self, name: str) -> int:
        return self._index().by_name[name][0]

    @property
    def statement_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.statements)

    def input_tensors(self) -> Tuple[str, ...]:
        written = {s.tensor_written() for s in self.statements}
        read = [t for s in self.statements for t in s.tensors_read()]
        return tuple(dict.fromkeys(t for t in read if t not in written))

    def intermediate_tensors(self) -> Tuple[str, ...]:
        written = [s.tensor_written() for s in self.statements]
        return tuple(
            dict.fromkeys(t for t in written if t not in self.liveout)
        )

    # -- polyhedral views ----------------------------------------------------

    def domains(self) -> UnionSet:
        return UnionSet([s.domain for s in self.statements])

    def reads(self) -> UnionMap:
        acc = UnionMap.empty()
        for s in self.statements:
            acc = acc.union(s.read_relations())
        return acc

    def writes(self) -> UnionMap:
        return UnionMap([s.write_relation() for s in self.statements])

    def writers_of(self, tensor: str) -> List[Statement]:
        return list(self._index().writers.get(tensor, ()))

    def readers_of(self, tensor: str) -> List[Statement]:
        return list(self._index().readers.get(tensor, ()))

    def written_tensors(self) -> AbstractSet[str]:
        return self._index().writers.keys()

    def total_instances(self, params: Optional[Mapping[str, int]] = None) -> int:
        params = dict(self.params, **(params or {}))
        return sum(s.domain.count_points(params) for s in self.statements)

    def __repr__(self):
        return (
            f"Program({self.name}, {len(self.statements)} statements, "
            f"liveout={list(self.liveout)})"
        )


class ProgramBuilder:
    """Fluent construction of :class:`Program` objects."""

    def __init__(self, name: str, params: Optional[Mapping[str, int]] = None):
        self.name = name
        self.params: Dict[str, int] = dict(params or {})
        self._tensors: Dict[str, Tensor] = {}
        self._statements: List[Statement] = []
        self._liveout: Optional[List[str]] = None

    # -- declarations --------------------------------------------------------

    def tensor(self, name: str, shape: Sequence, dtype=np.float64) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"tensor {name!r} already declared")
        t = Tensor(name, shape, dtype)
        self._tensors[name] = t
        return t

    def iters(self, *names: str) -> Tuple[LinExpr, ...]:
        return tuple(LinExpr.var(n) for n in names)

    def param(self, name: str) -> LinExpr:
        if name not in self.params:
            raise KeyError(f"unknown param {name!r}")
        return LinExpr.var(name)

    # -- statements ----------------------------------------------------------

    def _domain(self, name: str, dims: Sequence[LinExpr], cond: str) -> Set:
        dim_names = []
        for d in dims:
            syms = d.symbols()
            if len(syms) != 1 or d.coeff(syms[0]) != 1 or d.const != 0:
                raise ValueError(f"statement dims must be plain iterators, got {d}")
            dim_names.append(syms[0])
        prologue = f"[{', '.join(self.params)}] -> " if self.params else ""
        text = f"{prologue}{{ {name}[{', '.join(dim_names)}] : {cond} }}"
        return parse_set(text)

    def assign(self, name, dims, cond, lhs: Load, rhs) -> Statement:
        stmt = Statement(name, self._domain(name, dims, cond), lhs, as_expr(rhs), ASSIGN)
        self._statements.append(stmt)
        return stmt

    def reduce(self, name, dims, cond, lhs: Load, rhs, op: str = "+") -> Statement:
        stmt = Statement(
            name, self._domain(name, dims, cond), lhs, as_expr(rhs), REDUCE, op
        )
        self._statements.append(stmt)
        return stmt

    # -- finalisation ----------------------------------------------------------

    def set_liveout(self, *tensors: str) -> "ProgramBuilder":
        self._liveout = [t.name if isinstance(t, Tensor) else t for t in tensors]
        return self

    def build(self) -> Program:
        return Program(
            self.name, self._statements, self._tensors, self.params, self._liveout
        )
