"""Basic maps: affine relations between two tuples."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

from . import memo
from .basic_set import BasicSet
from .constraint import Constraint
from .linexpr import LinExpr
from .space import MapSpace, SetSpace, fresh_names

_APPLY_MEMO = memo.table("apply_range", spillable=True)
_INTERSECT_MEMO = memo.table("map_intersect")
_REVERSE_MEMO = memo.table("map_reverse")
_RENAME_MEMO = memo.table("map_rename")
_SPECIALIZE_MEMO = memo.table("map_specialize", spillable=True)


class BasicMap:
    """An integer relation ``{ in[dims] -> out[dims] : constraints }``."""

    __slots__ = ("space", "constraints")

    def __init__(self, space: MapSpace, constraints: Iterable[Constraint] = ()):
        constraints = tuple(c for c in constraints if not c.is_trivially_true())
        allowed = set(space.in_dims) | set(space.out_dims) | set(space.params)
        for c in constraints:
            if not allowed.issuperset(c.expr.coeffs):
                bad = [s for s in c.expr.symbols() if s not in allowed]
                raise ValueError(f"constraint {c} mentions {bad} outside {space}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", constraints)

    @classmethod
    def _make(cls, space: MapSpace, constraints: tuple) -> "BasicMap":
        """Fast constructor for constraints already validated against
        ``space`` and already filtered of trivially-true members."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", constraints)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("BasicMap is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def universe(space: MapSpace) -> "BasicMap":
        return BasicMap(space, ())

    @staticmethod
    def from_exprs(
        in_name: str,
        in_dims: Sequence[str],
        out_name: str,
        out_exprs: Sequence[LinExpr],
        params: Sequence[str] = (),
        out_dims: Optional[Sequence[str]] = None,
        domain: Optional[BasicSet] = None,
    ) -> "BasicMap":
        """Build the graph of an affine function ``in -> (e_0, ..., e_k)``."""
        if out_dims is None:
            out_dims = fresh_names(
                [f"o{i}" for i in range(len(out_exprs))],
                list(in_dims) + list(params),
            )
        space = MapSpace(in_name, tuple(in_dims), out_name, tuple(out_dims), tuple(params))
        cons: List[Constraint] = [
            Constraint.eq(LinExpr.var(od) - e) for od, e in zip(out_dims, out_exprs)
        ]
        if domain is not None:
            if tuple(domain.space.dims) != tuple(in_dims):
                raise ValueError("domain dims must match in_dims")
            cons.extend(domain.constraints)
        return BasicMap(space, cons)

    # -- conversions -------------------------------------------------------

    def wrap(self) -> BasicSet:
        """View the relation as a set over in_dims + out_dims."""
        # The wrapped space carries exactly the map's symbols, so the
        # constraints are valid by construction.
        return BasicSet._make(
            SetSpace(
                f"{self.space.in_name}->{self.space.out_name}",
                self.space.in_dims + self.space.out_dims,
                self.space.params,
            ),
            self.constraints,
        )

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return self.wrap().is_empty()

    def is_subset(self, other: "BasicMap") -> bool:
        return self.wrap().is_subset(other.wrap())

    # -- algebra -----------------------------------------------------------

    def reverse(self) -> "BasicMap":
        key = (self.space, self.constraints)
        cached = _REVERSE_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        # Same symbols, already filtered: the fast constructor applies.
        result = BasicMap._make(self.space.reversed(), self.constraints)
        return _REVERSE_MEMO.put(key, result)

    def intersect(self, other: "BasicMap") -> "BasicMap":
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        key = (self.space, self.constraints, other.constraints)
        cached = _INTERSECT_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        result = BasicMap._make(self.space, self.constraints + other.constraints)
        return _INTERSECT_MEMO.put(key, result)

    def intersect_domain(self, dom: BasicSet) -> "BasicMap":
        aligned = _align_set_dims(dom, self.space.in_dims)
        return BasicMap(self.space, self.constraints + aligned.constraints)

    def intersect_range(self, rng: BasicSet) -> "BasicMap":
        aligned = _align_set_dims(rng, self.space.out_dims)
        return BasicMap(self.space, self.constraints + aligned.constraints)

    def domain(self) -> BasicSet:
        bset = self.wrap().project_out(self.space.out_dims)
        return BasicSet._make(self.space.domain_space, bset.constraints)

    def range(self) -> BasicSet:
        bset = self.wrap().project_out(self.space.in_dims)
        return BasicSet._make(self.space.range_space, bset.constraints)

    def apply_range(self, other: "BasicMap") -> "BasicMap":
        """Compose: ``{ x -> z : exists y. self(x,y) and other(y,z) }``."""
        if self.space.n_out != other.space.n_in:
            raise ValueError(
                f"arity mismatch composing {self.space} with {other.space}"
            )
        key = (self.space, self.constraints, other.space, other.constraints)
        cached = _APPLY_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        # Name other's in-dims after our out-dims (the shared middle tuple)
        # and its out-dims away from ours, then project the middle out.
        taken = set(self.space.in_dims) | set(self.space.out_dims) | set(self.space.params)
        other_out = fresh_names(list(other.space.out_dims), taken)
        rename = dict(zip(other.space.in_dims, self.space.out_dims))
        rename.update(zip(other.space.out_dims, other_out))
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        joint = BasicSet(
            SetSpace(
                "_join",
                self.space.in_dims + self.space.out_dims + tuple(other_out),
                params,
            ),
            self.constraints + tuple(c.rename(rename) for c in other.constraints),
        )
        projected = joint.project_out(self.space.out_dims)
        out_space = MapSpace(
            self.space.in_name,
            self.space.in_dims,
            other.space.out_name,
            tuple(other_out),
            params,
        )
        return _APPLY_MEMO.put(key, BasicMap(out_space, projected.constraints))

    def apply_to_set(self, bset: BasicSet) -> BasicSet:
        """Image of ``bset`` under the relation."""
        if len(bset.space.dims) != self.space.n_in:
            raise ValueError("arity mismatch in apply_to_set")
        aligned = _align_set_dims(bset, self.space.in_dims)
        joint = BasicMap(self.space, self.constraints + aligned.constraints)
        return joint.range()

    def fix(self, binding: Mapping[str, int]) -> "BasicMap":
        cons = [c.substitute(binding) for c in self.constraints]
        in_dims = tuple(d for d in self.space.in_dims if d not in binding)
        out_dims = tuple(d for d in self.space.out_dims if d not in binding)
        params = tuple(p for p in self.space.params if p not in binding)
        return BasicMap(
            MapSpace(self.space.in_name, in_dims, self.space.out_name, out_dims, params),
            cons,
        )

    def fix_params(self, binding: Mapping[str, int]) -> "BasicMap":
        binding = {k: v for k, v in binding.items() if k in self.space.params}
        return self.fix(binding)

    def specialize(self, binding: Mapping[str, int]) -> "BasicMap":
        """Exact, memoized substitution of integers for parameters
        (see :meth:`BasicSet.specialize`)."""
        binding = {
            k: int(v) for k, v in binding.items() if k in self.space.params
        }
        if not binding:
            return self
        key = (self.space, self.constraints, tuple(sorted(binding.items())))
        cached = _SPECIALIZE_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        params = tuple(p for p in self.space.params if p not in binding)
        result = BasicMap(
            MapSpace(
                self.space.in_name,
                self.space.in_dims,
                self.space.out_name,
                self.space.out_dims,
                params,
            ),
            [c.substitute(binding) for c in self.constraints],
        )
        return _SPECIALIZE_MEMO.put(key, result)

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicMap":
        key = (self.space, self.constraints, tuple(sorted(mapping.items())))
        cached = _RENAME_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        result = BasicMap(
            self.space.rename_dims(dict(mapping)),
            [c.rename(mapping) for c in self.constraints],
        )
        return _RENAME_MEMO.put(key, result)

    def with_names(self, in_name: str, out_name: str) -> "BasicMap":
        return BasicMap(
            MapSpace(in_name, self.space.in_dims, out_name, self.space.out_dims, self.space.params),
            self.constraints,
        )

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicMap":
        return BasicMap(self.space, self.constraints + tuple(constraints))

    def simplify(self) -> "BasicMap":
        return BasicMap(self.space, self.wrap().simplify().constraints)

    def image_of_point(self, point: Mapping[str, int]) -> BasicSet:
        """The set of out-points related to a concrete in-point."""
        return self.fix({d: point[d] for d in self.space.in_dims}).range_as_set()

    def range_as_set(self) -> BasicSet:
        if self.space.n_in != 0:
            return self.range()
        return BasicSet(self.space.range_space, self.constraints)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicMap):
            return NotImplemented
        if (
            self.space.in_dims != other.space.in_dims
            or self.space.out_dims != other.space.out_dims
        ):
            return False
        return self.wrap() == other.wrap()

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.constraints)))

    def __repr__(self) -> str:
        return f"BasicMap({self})"

    def __str__(self) -> str:
        cons = " and ".join(str(c) for c in self.constraints)
        body = str(self.space) + (f" : {cons}" if cons else "")
        params = f"[{', '.join(self.space.params)}] -> " if self.space.params else ""
        return f"{params}{{ {body} }}"


def _align_set_dims(bset: BasicSet, target_dims: Sequence[str]) -> BasicSet:
    if len(bset.space.dims) != len(target_dims):
        raise ValueError(
            f"arity mismatch: set dims {bset.space.dims} vs {tuple(target_dims)}"
        )
    mapping = dict(zip(bset.space.dims, target_dims))
    return bset.rename_dims(mapping)
