"""Sets: finite unions of basic sets over one space."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import memo
from .basic_set import BasicSet
from .constraint import EQ, Constraint
from .space import SetSpace

# Union-algebra memo tables (structural keys over piece-constraint tuples).
# ``dedupe`` results are cheap to rebuild but hits return the *same* object,
# which keeps downstream memo keys identical; ``pattern_hull`` and
# ``coalesce`` replay rational-feasibility probes per call, so their entries
# also spill through the disk cache.
_DEDUPE_MEMO = memo.table("set_dedupe")
_HULL_MEMO = memo.table("pattern_hull", spillable=True)
_COALESCE_MEMO = memo.table("set_coalesce", spillable=True)
_COUNT_MEMO = memo.table("count_points")
_SPECIALIZE_MEMO = memo.table("uset_specialize")
_BOX_MEMO = memo.table("uset_bounding_box")


def _pieces_key(pieces: Sequence[BasicSet]) -> tuple:
    """Structural key of a union's pieces (params may differ per piece)."""
    return tuple((p.space.params, p.constraints) for p in pieces)


class Set:
    """A union of :class:`BasicSet` pieces sharing a space."""

    __slots__ = ("space", "pieces")

    def __init__(self, space: SetSpace, pieces: Iterable[BasicSet] = ()):
        clean: List[BasicSet] = []
        for p in pieces:
            if p.space.dims != space.dims or p.space.name != space.name:
                raise ValueError(f"piece space {p.space} != {space}")
            if not p.is_obviously_empty():
                clean.append(p)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pieces", tuple(clean))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Set is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_basic(bset: BasicSet) -> "Set":
        return Set(bset.space, [bset])

    @staticmethod
    def empty(space: SetSpace) -> "Set":
        return Set(space, [])

    @staticmethod
    def universe(space: SetSpace) -> "Set":
        return Set(space, [BasicSet.universe(space)])

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)

    def contains(self, point: Mapping[str, int]) -> bool:
        return any(p.contains(point) for p in self.pieces)

    def sample(self) -> Optional[Dict[str, int]]:
        for p in self.pieces:
            found = p.sample()
            if found is not None:
                return found
        return None

    def is_subset(self, other: "Set") -> bool:
        return self.subtract(other).is_empty()

    def is_equal(self, other: "Set") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Set") -> "Set":
        if self.space.dims != other.space.dims or self.space.name != other.space.name:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        space = self.space.with_params(params)
        return Set(space, _reparam(self.pieces, params) + _reparam(other.pieces, params))

    def intersect(self, other: "Set") -> "Set":
        if self.space.dims != other.space.dims or self.space.name != other.space.name:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        space = self.space.with_params(params)
        out = []
        for a in _reparam(self.pieces, params):
            for b in _reparam(other.pieces, params):
                piece = a.intersect(b)
                if not piece.is_obviously_empty():
                    out.append(piece)
        return Set(space, out)

    def subtract(self, other: "Set") -> "Set":
        if self.space.dims != other.space.dims or self.space.name != other.space.name:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")
        params = tuple(dict.fromkeys(self.space.params + other.space.params))
        space = self.space.with_params(params)
        remaining = list(_reparam(self.pieces, params))
        for b in _reparam(other.pieces, params):
            next_remaining: List[BasicSet] = []
            for a in remaining:
                next_remaining.extend(_subtract_basic(a, b))
            remaining = next_remaining
        return Set(space, remaining)

    def dedupe(self) -> "Set":
        """Drop syntactically identical pieces (cheap, exact)."""
        mkey = (self.space, _pieces_key(self.pieces))
        cached = _DEDUPE_MEMO.get(mkey)
        if cached is not memo.MISS:
            return cached
        seen = set()
        out = []
        for p in self.pieces:
            key = frozenset(p.constraints)
            if key not in seen:
                seen.add(key)
                out.append(p)
        return _DEDUPE_MEMO.put(mkey, Set(self.space, out))

    def pattern_hull(self) -> "Set":
        """The *simple hull*: one piece over-approximating the union.

        Equalities are expanded into inequality pairs; for every
        coefficient pattern present in **all** pieces the weakest constant
        is kept, other constraints are dropped.  The result contains every
        piece (a sound over-approximation).  Exact when the pieces are
        shifted copies of one region whose union is a box — the halo-merge
        case this exists for.  Callers use it only where growth is sound
        (footprints and extension schedules, which may legally recompute
        more).
        """
        from .constraint import GE, Constraint

        from .linexpr import LinExpr

        live = [p for p in self.pieces if not p.is_obviously_empty()]
        if len(live) <= 1:
            return Set(self.space, live)
        mkey = (self.space, _pieces_key(live))
        cached = _HULL_MEMO.get(mkey)
        if cached is not memo.MISS:
            return cached

        # Per piece: pattern -> effective (tightest) constant among that
        # piece's own constraints with this pattern (EQs contribute both
        # directions).
        per_piece: List[Dict[frozenset, int]] = []
        for p in live:
            table: Dict[frozenset, int] = {}
            for c in p.constraints:
                ges = (
                    [c]
                    if c.kind == GE
                    else [Constraint(c.expr, GE), Constraint(-c.expr, GE)]
                )
                for g in ges:
                    key = frozenset(g.expr.coeffs.items())
                    const = g.expr.const
                    if key in table:
                        table[key] = min(table[key], const)
                    else:
                        table[key] = const
            per_piece.append(table)

        # Hull only within groups sharing the same pattern *set*: the hull
        # then keeps every pattern (so no piece loses a bound direction);
        # pieces with genuinely different access structure (e.g. transposed
        # reads) stay separate.
        groups: Dict[frozenset, List[Dict[frozenset, int]]] = {}
        order: List[frozenset] = []
        for table in per_piece:
            keyset = frozenset(table)
            if keyset not in groups:
                groups[keyset] = []
                order.append(keyset)
            groups[keyset].append(table)

        out: List[BasicSet] = []
        for keyset in order:
            tables = groups[keyset]
            cons = []
            # Deterministic constraint order: frozenset iteration is salted
            # by PYTHONHASHSEED, and constraint tuples feed memo keys and
            # printed output.
            for key in sorted(keyset, key=sorted):
                const = max(t[key] for t in tables)  # weakest bound wins
                cons.append(Constraint(LinExpr(dict(key), const), GE))
            out.append(BasicSet(self.space, cons))
        return _HULL_MEMO.put(mkey, Set(self.space, out))

    def coalesce(self) -> "Set":
        """Drop pieces contained in other pieces and provably empty pieces.

        Containment and emptiness use rational reasoning — sound for
        dropping (never removes integer points), cheap on large unions.
        """
        from .fm import rational_feasible

        mkey = (self.space, _pieces_key(self.pieces))
        cached = _COALESCE_MEMO.get(mkey)
        if cached is not memo.MISS:
            return cached
        live = [
            p
            for p in self.dedupe().pieces
            if rational_feasible(list(p.constraints))
        ]
        dropped = [False] * len(live)
        for i, p in enumerate(live):
            for j, q in enumerate(live):
                if i == j or dropped[i] or dropped[j]:
                    continue
                if p.is_subset_rational(q):
                    if j > i and q.is_subset_rational(p):
                        continue
                    dropped[i] = True
                    break
        return _COALESCE_MEMO.put(
            mkey, Set(self.space, [p for p, d in zip(live, dropped) if not d])
        )

    def project_out(self, dims: Sequence[str]) -> "Set":
        pieces = [p.project_out(dims) for p in self.pieces]
        space = self.space.drop_dims(dims)
        return Set(space, pieces)

    def fix(self, binding: Mapping[str, int]) -> "Set":
        pieces = [p.fix(binding) for p in self.pieces]
        dims = tuple(d for d in self.space.dims if d not in binding)
        params = tuple(p for p in self.space.params if p not in binding)
        return Set(SetSpace(self.space.name, dims, params), pieces)

    def fix_params(self, binding: Mapping[str, int]) -> "Set":
        binding = {k: v for k, v in binding.items() if k in self.space.params}
        return self.fix(binding)

    def specialize(self, binding: Mapping[str, int]) -> "Set":
        """Exact, memoized substitution of integers for parameters, piece
        by piece (see :meth:`BasicSet.specialize`)."""
        params = tuple(p for p in self.space.params if p not in binding)
        if len(params) == len(self.space.params):
            return self
        key = (
            self.space,
            _pieces_key(self.pieces),
            tuple(sorted(binding.items())),
        )
        cached = _SPECIALIZE_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        space = SetSpace(self.space.name, self.space.dims, params)
        return _SPECIALIZE_MEMO.put(
            key, Set(space, [p.specialize(binding) for p in self.pieces])
        )

    def rename_dims(self, mapping: Mapping[str, str]) -> "Set":
        return Set(
            self.space.rename_dims(dict(mapping)),
            [p.rename_dims(mapping) for p in self.pieces],
        )

    def with_name(self, name: str) -> "Set":
        return Set(
            SetSpace(name, self.space.dims, self.space.params),
            [p.with_name(name) for p in self.pieces],
        )

    def simplify(self) -> "Set":
        return Set(self.space, [p.simplify() for p in self.pieces]).coalesce()

    # -- counting ----------------------------------------------------------

    def count_points(self, params: Mapping[str, int] | None = None) -> int:
        binding = dict(params or {})
        key = (
            self.space,
            _pieces_key(self.pieces),
            tuple(sorted(binding.items())),
        )
        cached = _COUNT_MEMO.get(key)
        if cached is not memo.MISS:
            return cached
        n = _count_boxes(self, binding)
        if n is None:
            from .enumerate import enumerate_set_points

            n = sum(1 for _ in enumerate_set_points(self, binding))
        return _COUNT_MEMO.put(key, n)

    def bounding_box(self, params=None):
        key = (
            self.space,
            _pieces_key(self.pieces),
            None if params is None else tuple(sorted(params.items())),
        )
        cached = _BOX_MEMO.get(key)
        if cached is not memo.MISS:
            return dict(cached)  # callers may mutate their box
        box: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        for p in self.pieces:
            for dim, (lo, hi) in p.bounding_box(params).items():
                if dim not in box:
                    box[dim] = (lo, hi)
                else:
                    olo, ohi = box[dim]
                    lo = None if lo is None or olo is None else min(lo, olo)
                    hi = None if hi is None or ohi is None else max(hi, ohi)
                    box[dim] = (lo, hi)
        _BOX_MEMO.put(key, box)
        return dict(box)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        return f"Set({self})"

    def __str__(self) -> str:
        if not self.pieces:
            params = f"[{', '.join(self.space.params)}] -> " if self.space.params else ""
            return f"{params}{{ {self.space} : false }}"
        return " ∪ ".join(str(p) for p in self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self):
        return len(self.pieces)


def _box_intervals(
    piece: BasicSet,
) -> Optional[Dict[str, Tuple[int, int]]]:
    """Exact per-dimension integer intervals when ``piece`` is a product of
    1-D sets — every constraint mentions at most one symbol — else None.

    A returned interval with ``hi < lo`` marks an empty piece.  The product
    of the interval extents is then the exact point count, because the
    dimensions are independent and constraint normalization already
    tightened each bound to an integer.
    """
    if piece.space.params:
        return None
    dims = piece.space.dims
    lo: Dict[str, int] = {}
    hi: Dict[str, int] = {}
    empty = False
    for c in piece.constraints:
        coeffs = c.expr.coeffs
        if not coeffs:
            # Pure constants: the constructor drops trivially-true ones,
            # so anything left is false.
            empty = True
            continue
        if len(coeffs) > 1:
            return None
        ((sym, a),) = coeffs.items()
        const = c.expr.const
        if c.kind == EQ:
            if (-const) % a != 0:
                empty = True
                continue
            v = -const // a
            lo[sym] = v if sym not in lo else max(lo[sym], v)
            hi[sym] = v if sym not in hi else min(hi[sym], v)
        elif a > 0:  # a*sym + const >= 0  ->  sym >= ceil(-const/a)
            b = -(const // a)
            lo[sym] = b if sym not in lo else max(lo[sym], b)
        else:  # sym <= floor(const/-a)
            b = const // (-a)
            hi[sym] = b if sym not in hi else min(hi[sym], b)
    if empty:
        return {d: (0, -1) for d in dims} or {"": (0, -1)}
    box: Dict[str, Tuple[int, int]] = {}
    for d in dims:
        if d not in lo or d not in hi:
            return None  # unbounded: let enumeration raise as before
        box[d] = (lo[d], hi[d])
    return box


def _box_count(box: Dict[str, Tuple[int, int]]) -> int:
    total = 1
    for lo, hi in box.values():
        if hi < lo:
            return 0
        total *= hi - lo + 1
    return total


def _piece_count(piece: BasicSet) -> Optional[int]:
    """Exact point count of one basic set, or None when full enumeration
    would be just as cheap.

    Boxes are counted by interval products.  Coupled pieces are split into
    connected components of the constraint graph (dims linked by a shared
    constraint); independent components multiply, so a strided footprint
    like ``{[h,w,dh,dw] : lo <= 8h+dh <= hi, ...}`` enumerates two small
    2-D components instead of their 4-D product.
    """
    if piece.space.params:
        return None
    box = _box_intervals(piece)
    if box is not None:
        return _box_count(box)
    dims = piece.space.dims
    parent = {d: d for d in dims}

    def find(d: str) -> str:
        while parent[d] != d:
            parent[d] = parent[parent[d]]
            d = parent[d]
        return d

    for c in piece.constraints:
        syms = [x for x in c.expr.coeffs if x in parent]
        for a, b in zip(syms, syms[1:]):
            parent[find(a)] = find(b)
    comps: Dict[str, List[str]] = {}
    for d in dims:
        comps.setdefault(find(d), []).append(d)
    if len(comps) <= 1:
        return None  # fully coupled: no decomposition win over enumeration
    from .enumerate import EnumerationError, enumerate_points

    total = 1
    for comp in comps.values():
        cset = set(comp)
        ccons = []
        for c in piece.constraints:
            syms = set(c.expr.coeffs)
            if not syms:
                # Constant constraints survive normalisation only if false.
                return 0
            if syms <= cset:
                ccons.append(c)
        sub = BasicSet(SetSpace(piece.space.name, tuple(comp), ()), ccons)
        try:
            n = sum(1 for _ in enumerate_points(sub))
        except EnumerationError:
            return None  # unbounded: let the full fallback raise as before
        if n == 0:
            return 0
        total *= n
    return total


def _count_boxes(s: "Set", binding: Mapping[str, int]) -> Optional[int]:
    """Exact point count via interval arithmetic, or None to enumerate.

    Handles the shapes that dominate the cost model: unions of axis-aligned
    boxes, overlapping or not, and single coupled pieces that decompose
    into independent components (see :func:`_piece_count`).  Overlapping
    boxes are resolved exactly with a coordinate-compressed sweep (grid
    cells induced by the box edges), so stencil footprints — many shifted
    copies of one window — stay on the fast path.  Everything else falls
    back to lexicographic enumeration (identical results, just slower).
    """
    pieces = [p.fix_params(binding) if binding else p for p in s.pieces]
    if len(pieces) == 1:
        n = _piece_count(pieces[0])
        if n is not None:
            return n
    boxes = []
    for p in pieces:
        box = _box_intervals(p)
        if box is None:
            return None
        if _box_count(box) > 0:
            boxes.append(box)
    if not boxes:
        return 0
    if len(boxes) == 1:
        return _box_count(boxes[0])
    dims = list(boxes[0])
    if not dims:
        return 1  # several non-empty zero-dim pieces: one point
    # Cuts along each dim at every box edge (half-open [lo, hi+1)); each
    # resulting grid cell is either fully inside or fully outside every box,
    # so testing one representative point per cell is exact.
    grids = {}
    for d in dims:
        cuts = set()
        for b in boxes:
            lo, hi = b[d]
            cuts.add(lo)
            cuts.add(hi + 1)
        grids[d] = sorted(cuts)
    total = 0

    def walk(i: int, reps: Tuple[int, ...], cell: int) -> None:
        nonlocal total
        if i == len(dims):
            if any(
                all(b[d][0] <= r <= b[d][1] for d, r in zip(dims, reps))
                for b in boxes
            ):
                total += cell
            return
        g = grids[dims[i]]
        for lo, hi in zip(g, g[1:]):
            walk(i + 1, reps + (lo,), cell * (hi - lo))

    walk(0, (), 1)
    return total


def _reparam(pieces: Sequence[BasicSet], params: Tuple[str, ...]) -> List[BasicSet]:
    return [
        BasicSet(p.space.with_params(params), p.constraints) for p in pieces
    ]


def _subtract_basic(a: BasicSet, b: BasicSet) -> List[BasicSet]:
    """``a - b`` as a union of basic sets.

    For each constraint c of b, emit ``a ∩ (constraints of b seen so far) ∩ ¬c``.
    Including the previously-seen constraints keeps the pieces disjoint.
    """
    if not b.constraints:
        return []
    out: List[BasicSet] = []
    seen: List[Constraint] = []
    for c in b.constraints:
        for neg in c.negated():
            piece = BasicSet(a.space, a.constraints + tuple(seen) + (neg,))
            if not piece.is_obviously_empty():
                out.append(piece)
        seen.append(c)
    return out


def _lex_extreme(s: "Set", maximize: bool, params=None):
    """Shared implementation of lexmin/lexmax for bounded sets."""
    from .fm import bounds_for_symbol, eliminate_symbols, find_integer_point

    fixed = s.fix_params(params or {})
    if fixed.space.params:
        raise ValueError(
            f"lex extreme needs bound params, {fixed.space.params} free"
        )
    dims = list(fixed.space.dims)
    best = None
    for piece in fixed.pieces:
        binding = {}
        cons = list(piece.constraints)
        ok = True
        for i, dim in enumerate(dims):
            rest = dims[i + 1:]
            projected = eliminate_symbols(
                [c.substitute(binding) for c in cons], rest
            )
            lo, hi, _ = bounds_for_symbol(projected, dim, {})
            if lo is None or hi is None:
                raise ValueError(f"unbounded dimension {dim}")
            rng = range(hi, lo - 1, -1) if maximize else range(lo, hi + 1)
            found = False
            for val in rng:
                probe = [c.substitute({**binding, dim: val}) for c in cons]
                if find_integer_point(probe) is not None:
                    binding[dim] = val
                    found = True
                    break
            if not found:
                ok = False
                break
        if not ok:
            continue
        key = tuple(binding[d] for d in dims)
        if best is None or (key > best if maximize else key < best):
            best = key
    if best is None:
        return None
    return dict(zip(dims, best))


def lexmin(s: "Set", params=None):
    """The lexicographically smallest point of a bounded set (or None)."""
    return _lex_extreme(s, maximize=False, params=params)


def lexmax(s: "Set", params=None):
    """The lexicographically largest point of a bounded set (or None)."""
    return _lex_extreme(s, maximize=True, params=params)
