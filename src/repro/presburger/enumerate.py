"""Concrete point enumeration of bounded integer sets.

The executor backend and exact footprint counting both rely on lexicographic
enumeration.  Enumeration builds a Fourier–Motzkin *tower*: level ``i`` of the
tower constrains the first ``i`` dimensions only, so the integer range of
dimension ``i`` can be computed once dimensions ``0..i-1`` are fixed.  Since
FM projection can be a rational over-approximation, every emitted point is
verified against the original constraints (the check is a no-op for the
unit-coefficient systems that dominate in practice).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .basic_set import BasicSet
from .constraint import Constraint
from .fm import eliminate_symbol, eval_bounds, symbol_bounds
from .set_ import Set


class EnumerationError(ValueError):
    pass


def _tower(constraints: Sequence[Constraint], dims: Sequence[str]) -> List[List[Constraint]]:
    """towers[i] constrains dims[:i] only (dims[i:] eliminated)."""
    towers: List[List[Constraint]] = [None] * (len(dims) + 1)  # type: ignore
    towers[len(dims)] = list(constraints)
    for i in range(len(dims) - 1, -1, -1):
        towers[i] = eliminate_symbol(towers[i + 1], dims[i])
    return towers


def enumerate_points(
    bset: BasicSet, params: Mapping[str, int] | None = None
) -> Iterator[Dict[str, int]]:
    """Yield every integer point of ``bset`` in lexicographic dim order."""
    fixed = bset.fix_params(params or {})
    if fixed.space.params:
        raise EnumerationError(
            f"cannot enumerate with unbound params {fixed.space.params}"
        )
    dims = list(fixed.space.dims)
    if not dims:
        if all(c.satisfied_by({}) for c in fixed.constraints):
            yield {}
        return
    towers = _tower(fixed.constraints, dims)
    for c in towers[0]:
        if c.is_trivially_false():
            return
    original = fixed.constraints

    levels = [symbol_bounds(towers[i + 1], dim) for i, dim in enumerate(dims)]
    binding: Dict[str, int] = {}

    def level_range(i: int) -> Tuple[int, int]:
        lo, hi = eval_bounds(levels[i], binding)
        if lo is None or hi is None:
            raise EnumerationError(
                f"dimension {dims[i]} of {bset} is unbounded; cannot enumerate"
            )
        return lo, hi

    def walk(i: int) -> Iterator[Dict[str, int]]:
        if i == len(dims):
            if all(c.satisfied_by(binding) for c in original):
                yield dict(binding)
            return
        lo, hi = level_range(i)
        dim = dims[i]
        for val in range(lo, hi + 1):
            binding[dim] = val
            yield from walk(i + 1)
        binding.pop(dim, None)

    yield from walk(0)


def enumerate_set_points(
    s: Set, params: Mapping[str, int] | None = None
) -> Iterator[Dict[str, int]]:
    """Yield points of a union exactly once (dedup across pieces)."""
    if len(s.pieces) == 1:
        yield from enumerate_points(s.pieces[0], params)
        return
    seen = set()
    dims = s.space.dims
    for piece in s.pieces:
        for point in enumerate_points(piece, params):
            key = tuple(point[d] for d in dims)
            if key not in seen:
                seen.add(key)
                yield point
