"""Maps: finite unions of basic maps over one map space."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from . import memo
from .basic_map import BasicMap, composed_space
from .basic_set import BasicSet
from .constraint import EQ
from .fm import eliminate_symbols_for_bounds, eval_bounds, symbol_bounds
from .linexpr import LinExpr
from .set_ import Set, union_volume
from .space import MapSpace, SetSpace

# An autotune sweep re-specializes the same symbolic relations once per
# candidate, and the cost/promotion passes probe the same concrete maps at
# the same points repeatedly; both are pure, so cache at the union level.
_SPECIALIZE_MEMO = memo.table("umap_specialize")
_FIX_MEMO = memo.table("umap_fix")
_APPLY_SET_MEMO = memo.table("umap_apply_to_set")
_BOX_MEMO = memo.table("umap_box_projection")


class Map:
    """A union of :class:`BasicMap` pieces sharing a map space."""

    __slots__ = ("space", "pieces")

    def __init__(self, space: MapSpace, pieces: Iterable[BasicMap] = ()):
        clean: List[BasicMap] = []
        for p in pieces:
            if (
                p.space.in_dims != space.in_dims
                or p.space.out_dims != space.out_dims
                or p.space.in_name != space.in_name
                or p.space.out_name != space.out_name
            ):
                raise ValueError(f"piece space {p.space} != {space}")
            clean.append(p)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pieces", tuple(clean))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Map is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(space: MapSpace) -> "Map":
        return Map(space, [])

    # -- conversions -------------------------------------------------------

    def wrap(self) -> Set:
        space = SetSpace(
            f"{self.space.in_name}->{self.space.out_name}",
            self.space.in_dims + self.space.out_dims,
            self.space.params,
        )
        return Set(space, [BasicSet(space, p.constraints) for p in self.pieces])

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)

    def is_subset(self, other: "Map") -> bool:
        return self.wrap().is_subset(other.wrap())

    def is_equal(self, other: "Map") -> bool:
        return self.wrap().is_equal(other.wrap())

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Map") -> "Map":
        if (
            self.space.in_dims != other.space.in_dims
            or self.space.out_dims != other.space.out_dims
        ):
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        space = self.space.with_params(params)
        return Map(space, _reparam(self.pieces, params) + _reparam(other.pieces, params))

    def intersect(self, other: "Map") -> "Map":
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        space = self.space.with_params(params)
        out = []
        for a in _reparam(self.pieces, params):
            for b in _reparam(other.pieces, params):
                out.append(a.intersect(b))
        return Map(space, out)

    def subtract(self, other: "Map") -> "Map":
        diff = self.wrap().subtract(other.wrap())
        return _unwrap(diff, self.space)

    def reverse(self) -> "Map":
        return Map(self.space.reversed(), [p.reverse() for p in self.pieces])

    def domain(self) -> Set:
        pieces = [p.domain() for p in self.pieces]
        return Set(self.space.domain_space, pieces)

    def range(self) -> Set:
        pieces = [p.range() for p in self.pieces]
        return Set(self.space.range_space, pieces)

    def intersect_domain(self, dom: Set) -> "Map":
        out = []
        for p in self.pieces:
            for d in dom.pieces:
                out.append(p.intersect_domain(d))
        params = tuple(dict.fromkeys(self.space.params + dom.space.params))
        return Map(self.space.with_params(params), _reparam(out, params))

    def intersect_range(self, rng: Set) -> "Map":
        out = []
        for p in self.pieces:
            for r in rng.pieces:
                out.append(p.intersect_range(r))
        params = tuple(dict.fromkeys(self.space.params + rng.space.params))
        return Map(self.space.with_params(params), _reparam(out, params))

    def apply_range(self, other: "Map") -> "Map":
        out = []
        space = None
        for a in self.pieces:
            for b in other.pieces:
                piece = a.apply_range(b)
                space = piece.space
                out.append(piece)
        if space is None:
            return Map(composed_space(self.space, other.space), [])
        # Align piece out-dim names (fresh_names may differ across pieces).
        canon = out[0].space
        aligned = []
        for p in out:
            mapping = dict(zip(p.space.out_dims, canon.out_dims))
            aligned.append(p.rename_dims(mapping))
        return Map(canon, aligned)

    def apply_to_set(self, s: Set) -> Set:
        key = (
            self.space,
            tuple(p.constraints for p in self.pieces),
            s.space,
            tuple(p.constraints for p in s.pieces),
        )
        cached = _APPLY_SET_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        pieces: List[BasicSet] = []
        for p in self.pieces:
            for b in s.pieces:
                pieces.append(p.apply_to_set(b))
        params = tuple(dict.fromkeys(self.space.params + s.space.params))
        space = self.space.range_space.with_params(params)
        return _APPLY_SET_MEMO.put(
            key,
            Set(space, [BasicSet(space.with_params(params), q.constraints) for q in pieces]),
        )

    def fix(self, binding: Mapping[str, int]) -> "Map":
        key = (
            self.space,
            tuple(p.constraints for p in self.pieces),
            tuple(sorted(binding.items())),
        )
        cached = _FIX_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        pieces = [p.fix(binding) for p in self.pieces]
        if pieces:
            return _FIX_MEMO.put(key, Map(pieces[0].space, pieces))
        in_dims = tuple(d for d in self.space.in_dims if d not in binding)
        out_dims = tuple(d for d in self.space.out_dims if d not in binding)
        params = tuple(p for p in self.space.params if p not in binding)
        return _FIX_MEMO.put(key, Map(
            MapSpace(self.space.in_name, in_dims, self.space.out_name, out_dims, params),
            [],
        ))

    def fix_params(self, binding: Mapping[str, int]) -> "Map":
        binding = {k: v for k, v in binding.items() if k in self.space.params}
        return self.fix(binding)

    def specialize(self, binding: Mapping[str, int]) -> "Map":
        """Exact, memoized substitution of integers for parameters, piece
        by piece (see :meth:`BasicSet.specialize`)."""
        params = tuple(p for p in self.space.params if p not in binding)
        if len(params) == len(self.space.params):
            return self
        key = (
            self.space,
            tuple(p.constraints for p in self.pieces),
            tuple(sorted(binding.items())),
        )
        cached = _SPECIALIZE_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        space = MapSpace(
            self.space.in_name,
            self.space.in_dims,
            self.space.out_name,
            self.space.out_dims,
            params,
        )
        return _SPECIALIZE_MEMO.put(
            key, Map(space, [p.specialize(binding) for p in self.pieces])
        )

    def rename_dims(self, mapping: Mapping[str, str]) -> "Map":
        return Map(
            self.space.rename_dims(dict(mapping)),
            [p.rename_dims(mapping) for p in self.pieces],
        )

    def dedupe(self) -> "Map":
        return _unwrap(self.wrap().dedupe(), self.space)

    def pattern_hull(self) -> "Map":
        """Over-approximating merge of same-pattern pieces (see Set)."""
        return _unwrap(self.wrap().pattern_hull(), self.space)

    def coalesce(self) -> "Map":
        return _unwrap(self.wrap().coalesce(), self.space)

    def simplify(self) -> "Map":
        return _unwrap(self.wrap().simplify(), self.space)

    def image_of_point(self, point: Mapping[str, int]) -> Set:
        """Set of out-points for a concrete in-point."""
        space = self.space.range_space
        return Set(
            space, [BasicSet(space, p.image_of_point(point).constraints) for p in self.pieces]
        )

    def box_projection(self) -> "BoxProjection":
        """Every piece projected onto each out dim, rationally, with the in
        dims and params left free: the bounding box of the image of any
        in-point, evaluated without a projection per point."""
        key = (self.space, tuple(p.constraints for p in self.pieces))
        cached = _BOX_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        return _BOX_MEMO.put(key, BoxProjection(self))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        return f"Map({self})"

    def __str__(self) -> str:
        if not self.pieces:
            return f"{{ {self.space} : false }}"
        return " ∪ ".join(str(p) for p in self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


class BoxProjection:
    """A map's :meth:`~Map.box_projection`.

    Per piece: the constraints that mention no out dim, the equalities
    whose out-dim coefficients share a factor ``g > 1``, and, per out dim,
    the bounds left once the other out dims are eliminated.  Fixing the in
    dims and params turns the first two into constants, and a false one is
    the obviously empty piece a :class:`Set` drops; the bounds then
    evaluate as :func:`~repro.presburger.fm.bounds_for_symbol` evaluates
    them.  Rational projection commutes with fixing the names it leaves
    free, so :meth:`extents` is the box of ``image_of_point``.

    A piece whose every constraint mentions at most one out dim is a *box*
    in its out dims: fixing the free names leaves one interval per out
    dim, read off its own constraints with nothing eliminated, and the
    product of those intervals is exactly its image.  :meth:`count` is the
    union volume of those boxes.
    """

    __slots__ = ("pieces",)

    def __init__(self, m: "Map"):
        outs = m.space.out_dims
        pieces = []
        for p in m.pieces:
            guards = []
            divisors = []
            is_box = True
            for c in p.constraints:
                out = [(s, c.coeff(s)) for s in outs if c.coeff(s)]
                if not out:
                    guards.append(c)
                    continue
                is_box = is_box and len(out) == 1
                if c.kind == EQ:
                    g = LinExpr(dict(out)).content()
                    if g > 1:
                        divisors.append((g, c.expr - LinExpr(dict(out))))
            bounds = tuple(
                symbol_bounds(
                    eliminate_symbols_for_bounds(
                        list(p.constraints), [o for o in outs if o != d]
                    ),
                    d,
                )
                for d in outs
            )
            box = (
                tuple(symbol_bounds(p.constraints, d) for d in outs) if is_box else None
            )
            pieces.append((tuple(guards), tuple(divisors), bounds, box))
        self.pieces = tuple(pieces)

    def _live(self, binding: Mapping[str, int]):
        """The pieces not obviously empty at the point ``binding`` names."""
        for guards, divisors, bounds, box in self.pieces:
            if not all(c.satisfied_by(binding) for c in guards):
                continue
            if any(rest.eval(binding) % g for g, rest in divisors):
                continue
            yield bounds, box

    def extents(self, binding: Mapping[str, int]) -> List[Optional[int]]:
        """Per out dim, the extent of the image of the point ``binding``
        names (with every free param), ``None`` where unbounded; ``[]``
        when every piece is obviously empty there."""
        box = None
        for bounds, _ in self._live(binding):
            piece = [eval_bounds(b, binding) for b in bounds]
            if box is None:
                box = piece
                continue
            box = [
                (
                    None if lo is None or olo is None else min(lo, olo),
                    None if hi is None or ohi is None else max(hi, ohi),
                )
                for (olo, ohi), (lo, hi) in zip(box, piece)
            ]
        if box is None:
            return []
        return [None if lo is None or hi is None else hi - lo + 1 for lo, hi in box]

    def count(self, binding: Mapping[str, int]) -> Optional[int]:
        """The number of integer points in the image of the point
        ``binding`` names, in closed form: the union volume of the boxes
        of the pieces that are not obviously empty there.  ``None`` when
        one of those pieces is not a box or is unbounded, for the caller
        to enumerate."""
        boxes = []
        for _, box in self._live(binding):
            if box is None:
                return None
            intervals = [eval_bounds(b, binding) for b in box]
            if any(lo is None or hi is None for lo, hi in intervals):
                return None
            boxes.append(intervals)
        return union_volume(boxes)


def _reparam(pieces: Sequence[BasicMap], params: Tuple[str, ...]):
    return [BasicMap(p.space.with_params(params), p.constraints) for p in pieces]


def _unwrap(s: Set, space: MapSpace) -> Map:
    params = tuple(dict.fromkeys(space.params + s.space.params))
    mspace = space.with_params(params)
    return Map(
        mspace, [BasicMap(mspace, p.constraints) for p in s.pieces]
    )
