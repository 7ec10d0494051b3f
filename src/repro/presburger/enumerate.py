"""Concrete point enumeration of bounded integer sets.

Exact footprint counting and the naive reference execution enumerate a
set's points in lexicographic order: its parameters fixed, then
:func:`repro.presburger.fm.lex_points`, the one Fourier–Motzkin scan.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from .basic_set import BasicSet
from .fm import Unbounded, lex_points
from .set_ import Set


class EnumerationError(ValueError):
    pass


def enumerate_points(
    bset: BasicSet, params: Mapping[str, int] | None = None
) -> Iterator[Dict[str, int]]:
    """Yield every integer point of ``bset`` in lexicographic dim order."""
    fixed = bset.fix_params(params or {})
    if fixed.space.params:
        raise EnumerationError(
            f"cannot enumerate with unbound params {fixed.space.params}"
        )
    try:
        yield from lex_points(fixed.constraints, fixed.space.dims)
    except Unbounded as e:
        raise EnumerationError(
            f"dimension {e.args[0]} of {bset} is unbounded; cannot enumerate"
        ) from None


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
