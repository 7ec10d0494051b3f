"""Basic sets: conjunctions of affine constraints over a :class:`SetSpace`."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import memo
from .constraint import GE, Constraint
from .fm import (
    FeasibilityUndecided,
    bounds_for_symbol,
    eliminate_symbols,
    eliminate_symbols_for_bounds,
    find_integer_point,
    prune_redundant,
    rational_feasible,
)
from .linexpr import LinExpr
from .space import SetSpace

_EMPTY_MEMO = memo.table("set_empty")
_PROJECT_MEMO = memo.table("project_out")
_SIMPLIFY_MEMO = memo.table("set_simplify")
_BOX_MEMO = memo.table("bounding_box")
# Specialization results are shared by every candidate of an autotune
# sweep, so they spill through the disk cache like apply_range entries.
_SPECIALIZE_MEMO = memo.table("set_specialize", spillable=True)


class BasicSet:
    """An integer set ``{ name[dims] : constraints }``.

    Constraints may mention dims and params only.  Immutable.
    """

    __slots__ = ("space", "constraints", "_empty")

    def __init__(self, space: SetSpace, constraints: Iterable[Constraint] = ()):
        constraints = tuple(c for c in constraints if not c.is_trivially_true())
        allowed = set(space.dims) | set(space.params)
        for c in constraints:
            if not allowed.issuperset(c.expr.coeffs):
                bad = [s for s in c.expr.symbols() if s not in allowed]
                raise ValueError(
                    f"constraint {c} mentions {bad} outside space {space} "
                    f"(params {space.params})"
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_empty", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("BasicSet is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, space: SetSpace, constraints: Tuple[Constraint, ...]) -> "BasicSet":
        """Fast constructor for constraints already validated against
        ``space`` (i.e. taken from an existing set/map over the same
        symbols) and already filtered of trivially-true members."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_empty", None)
        return self

    @staticmethod
    def universe(space: SetSpace) -> "BasicSet":
        return BasicSet(space, ())

    @staticmethod
    def empty(space: SetSpace) -> "BasicSet":
        return BasicSet(space, (Constraint(LinExpr({}, -1), GE),))

    # -- basic queries -----------------------------------------------------

    def is_obviously_empty(self) -> bool:
        return any(c.is_trivially_false() for c in self.constraints)

    def is_empty(self) -> bool:
        """Exact integer emptiness (falls back to rational when undecided)."""
        if self._empty is not None:
            return self._empty
        # Emptiness depends on the constraints alone, so structurally equal
        # sets (rebuilt per pass) share one verdict through the memo table.
        key = self.constraints
        result = _EMPTY_MEMO.get(key)
        if result is memo.MISS:
            if self.is_obviously_empty():
                result = True
            else:
                try:
                    result = find_integer_point(list(self.constraints)) is None
                except FeasibilityUndecided:
                    # Rational feasibility is an over-approximation: non-empty.
                    result = False
            _EMPTY_MEMO.put(key, result)
        object.__setattr__(self, "_empty", result)
        return result

    def sample(self) -> Optional[Dict[str, int]]:
        """An integer point (dims and any free params), or None if empty."""
        return find_integer_point(list(self.constraints), list(self.space.dims) + list(self.space.params))

    def contains(self, point: Mapping[str, int]) -> bool:
        return all(c.satisfied_by(point) for c in self.constraints)

    def involves(self, syms: Iterable[str]) -> bool:
        syms = list(syms)
        return any(c.involves(syms) for c in self.constraints)

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        return BasicSet._make(self.space, self.constraints + other.constraints)

    def project_out(self, dims: Sequence[str]) -> "BasicSet":
        """Existentially quantify ``dims`` (Fourier–Motzkin)."""
        missing = [d for d in dims if d not in self.space.dims]
        if missing:
            raise ValueError(f"cannot project out non-dims {missing} of {self.space}")
        key = (self.space, self.constraints, tuple(dims))
        cached = _PROJECT_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        cons = eliminate_symbols(list(self.constraints), list(dims))
        return _PROJECT_MEMO.put(key, BasicSet(self.space.drop_dims(dims), cons))

    def fix(self, binding: Mapping[str, int]) -> "BasicSet":
        """Substitute concrete integer values for dims and/or params."""
        cons = [c.substitute(binding) for c in self.constraints]
        dims = tuple(d for d in self.space.dims if d not in binding)
        params = tuple(p for p in self.space.params if p not in binding)
        return BasicSet(SetSpace(self.space.name, dims, params), cons)

    def fix_params(self, binding: Mapping[str, int]) -> "BasicSet":
        binding = {k: v for k, v in binding.items() if k in self.space.params}
        return self.fix(binding)

    def specialize(self, binding: Mapping[str, int]) -> "BasicSet":
        """Exact substitution of integer values for *parameters*.

        Semantically identical to :meth:`fix_params`, but memoized under a
        structural key: one parametric set specialized at many bindings
        (the autotune sweep) pays the substitution once per binding and the
        construction once overall.  Every constraint re-normalizes through
        :meth:`Constraint.substitute`, so the result is the same object the
        concrete pipeline would have built for unit-coefficient systems.
        """
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
        result = BasicSet(
            SetSpace(self.space.name, self.space.dims, params),
            [c.substitute(binding) for c in self.constraints],
        )
        return _SPECIALIZE_MEMO.put(key, result)

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        return BasicSet(
            self.space.rename_dims(dict(mapping)),
            [c.rename(mapping) for c in self.constraints],
        )

    def with_name(self, name: str) -> "BasicSet":
        return BasicSet(
            SetSpace(name, self.space.dims, self.space.params), self.constraints
        )

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.space, self.constraints + tuple(constraints))

    def simplify(self) -> "BasicSet":
        if self.is_obviously_empty():
            return BasicSet.empty(self.space)
        key = (self.space, self.constraints)
        cached = _SIMPLIFY_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        result = BasicSet(self.space, prune_redundant(list(self.constraints)))
        return _SIMPLIFY_MEMO.put(key, result)

    def is_subset(self, other: "BasicSet") -> bool:
        """self ⊆ other, exactly over the integers for bounded sets."""
        if self.space.dims != other.space.dims:
            raise ValueError("space mismatch in is_subset")
        for c in other.constraints:
            for neg in c.negated():
                probe = BasicSet(self.space, self.constraints + (neg,))
                if not probe.is_empty():
                    return False
        return True

    def is_subset_rational(self, other: "BasicSet") -> bool:
        """Sound under-approximation of ⊆ using rational emptiness only.

        ``True`` guarantees integer containment (rational emptiness implies
        integer emptiness); ``False`` may be a false negative.  Used where
        containment only prunes redundancy (coalescing).
        """
        if self.space.dims != other.space.dims:
            raise ValueError("space mismatch in is_subset_rational")
        for c in other.constraints:
            for neg in c.negated():
                probe = list(self.constraints) + [neg]
                if rational_feasible(probe):
                    return False
        return True

    # -- bounds / counting -------------------------------------------------

    def bounding_box(
        self, params: Mapping[str, int] | None = None
    ) -> Dict[str, Tuple[Optional[int], Optional[int]]]:
        """Per-dimension bounds of the rational projection onto each dim."""
        key = (self.space, self.constraints, tuple(sorted((params or {}).items())))
        cached = _BOX_MEMO.get(key)
        if cached is not memo.MISS:
            return dict(cached)
        fixed = self.fix_params(params or {})
        box: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        for dim in fixed.space.dims:
            others = [d for d in fixed.space.dims if d != dim]
            # The box only consumes bounds of the rational projection, so
            # the pruning eliminator (identical rational set, smaller
            # constraint lists) is safe here.
            proj = eliminate_symbols_for_bounds(list(fixed.constraints), others)
            lo, hi, _ = bounds_for_symbol(proj, dim, {})
            box[dim] = (lo, hi)
        _BOX_MEMO.put(key, box)
        return dict(box)

    def box_volume(self, params: Mapping[str, int] | None = None) -> int:
        """Volume of the bounding box (an upper bound on the point count)."""
        total = 1
        for lo, hi in self.bounding_box(params).values():
            if lo is None or hi is None:
                raise ValueError(f"unbounded set {self}")
            if hi < lo:
                return 0
            total *= hi - lo + 1
        return total

    def count_points(self, params: Mapping[str, int] | None = None) -> int:
        """Exact number of integer points (enumerative; set must be bounded)."""
        from .enumerate import enumerate_points

        return sum(1 for _ in enumerate_points(self, params or {}))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        if self.space != other.space:
            return False
        return self.is_subset(other) and other.is_subset(self)

    def __hash__(self) -> int:  # structural hash; semantic eq is richer
        return hash((self.space, frozenset(self.constraints)))

    def __repr__(self) -> str:
        return f"BasicSet({self})"

    def __str__(self) -> str:
        cons = " and ".join(str(c) for c in self.constraints)
        body = str(self.space) + (f" : {cons}" if cons else "")
        params = f"[{', '.join(self.space.params)}] -> " if self.space.params else ""
        return f"{params}{{ {body} }}"
