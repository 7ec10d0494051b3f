"""Fourier–Motzkin elimination and integer feasibility machinery.

These functions operate on bare lists of :class:`Constraint` objects; the
set/map classes layer space bookkeeping on top.

FM elimination is exact over the rationals.  Over the integers it is exact
whenever the eliminated symbol has a unit coefficient in every lower or every
upper bound — which holds for all constraint systems this package builds
(loop bounds, tile containment with constant tile sizes, stencil footprints).

Every lexicographic walk over integer points climbs one :func:`lex_tower`
(level ``i`` bounds symbol ``i`` once the later symbols are projected out):
:func:`lex_points` enumerates for counting and the interpreter, and
:func:`find_integer_point` descends to the first point, which decides
integer feasibility exactly for bounded systems.

Two families of fast paths keep the hot loop cheap:

* :func:`eliminate_symbol` short-circuits the *box* case — every bound on
  the eliminated symbol is a single-symbol constraint (rectangular tile
  containment) — where all pairwise combinations are constants and the
  feasible ones vanish, so no combination needs to be materialised;
* feasibility-only entry points (:func:`rational_feasible`,
  :func:`eliminate_symbols_for_bounds`) prune constraints that are
  rationally implied by cheap interval propagation between elimination
  rounds.  The pruning preserves the rational set exactly, so feasibility
  verdicts and rational-projection bounds are unchanged while the quadratic
  FM blowup is cut at every round.
"""

from __future__ import annotations

from math import ceil, floor, gcd
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import memo
from .constraint import EQ, GE, Constraint
from .linexpr import LinExpr
from .symtab import sym_name
from .. import obs

#: Dimension-count histogram buckets for FM eliminations (most systems in
#: this package project out 1-4 symbols; tile bands push the tail higher).
_DIM_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16)

_ELIM_MEMO = memo.table("fm_eliminate")
_ELIM_BOUNDS_MEMO = memo.table("fm_eliminate_bounds")


class FeasibilityUndecided(Exception):
    """Raised when integer feasibility search exceeds its budget."""


def _dedupe(constraints: Iterable[Constraint]) -> List[Constraint]:
    seen = set()
    out = []
    for c in constraints:
        if c.is_trivially_true():
            continue
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def eliminate_symbol(constraints: Sequence[Constraint], sym: str) -> List[Constraint]:
    """Project ``sym`` out of the conjunction of ``constraints``."""
    # Prefer substitution through an equality when available: exact over Z.
    eq = None
    for c in constraints:
        if c.kind == EQ and c.coeff(sym) != 0:
            if eq is None or abs(c.coeff(sym)) < abs(eq.coeff(sym)):
                eq = c
            if abs(c.coeff(sym)) == 1:
                eq = c
                break
    if eq is not None:
        return _dedupe(_eliminate_via_equality(constraints, sym, eq))

    lowers: List[Tuple[int, Constraint]] = []  # a > 0 in a*sym + e >= 0
    uppers: List[Tuple[int, Constraint]] = []  # a < 0 in a*sym + e >= 0
    rest: List[Constraint] = []
    box = True  # every bound on sym mentions sym alone
    for c in constraints:
        a = c.coeff(sym)
        if a == 0:
            rest.append(c)
        elif a > 0:
            lowers.append((a, c))
            box = box and len(c.expr.terms) == 1 and a == 1
        else:
            uppers.append((-a, c))
            box = box and len(c.expr.terms) == 1 and a == -1
    if box and lowers and uppers:
        # Box fast path: all bounds are single-symbol, so every pairwise
        # combination is a constant.  Normalisation already reduced the
        # coefficient to +/-1, hence the bounds are exactly
        # ``sym >= -cl`` and ``sym <= cu``; if max(-cl) <= min(cu) each
        # combination is trivially true and the pairwise loop contributes
        # nothing.  Fall through to the generic loop on the (rare)
        # infeasible box so the emitted falsum constants stay identical.
        lo = max(-c.expr.const for _, c in lowers)
        hi = min(c.expr.const for _, c in uppers)
        if lo <= hi:
            obs.count("presburger.fm_box_fast_path")
            return _dedupe(rest)
    for al, cl in lowers:
        for au, cu in uppers:
            # cl: al*sym + el >= 0, cu: -au*sym + eu >= 0
            # combine: au*el + al*eu >= 0
            el = cl.expr - LinExpr({sym: al})
            eu = cu.expr + LinExpr({sym: au})
            rest.append(Constraint(el * au + eu * al, GE))
    return _dedupe(rest)


def _eliminate_via_equality(
    constraints: Sequence[Constraint], sym: str, eq: Constraint
) -> List[Constraint]:
    a = eq.coeff(sym)
    out = []
    if abs(a) == 1:
        # sym = -sign(a) * (eq.expr - a*sym)
        rest_expr = eq.expr - LinExpr({sym: a})
        replacement = rest_expr * (-1 if a == 1 else 1)
        binding = {sym: replacement}
        for c in constraints:
            if c is eq:
                continue
            out.append(c.substitute(binding))
        return out
    # General integer-exact combination: add the right multiple of eq.expr
    # (which equals zero) to cancel sym.  The other constraint is scaled by
    # |a|/gcd(a, b) — the GCD-reduced multiplier — which is positive (so the
    # inequality direction is preserved) and keeps intermediate coefficients
    # as small as possible before re-normalisation.
    for c in constraints:
        if c is eq:
            continue
        b = c.coeff(sym)
        if b == 0:
            out.append(c)
            continue
        g = gcd(abs(a), abs(b))
        m = abs(a) // g
        k = -(b * m) // a
        out.append(Constraint(c.expr * m + eq.expr * k, c.kind))
    # |a| > 1: sym must exist with a*sym = -rest; record divisibility loss —
    # the projection may be a rational over-approximation.  For the constraint
    # systems in this package |a| is always 1 or a tile size dividing evenly.
    return out


def eliminate_symbols(
    constraints: Sequence[Constraint], syms: Sequence[str]
) -> List[Constraint]:
    obs.count("presburger.fm_eliminate", len(syms))
    if syms:
        obs.observe(
            "presburger.fm.eliminated_dims", len(syms), buckets=_DIM_BUCKETS
        )
    key = (tuple(constraints), tuple(syms))
    cached = _ELIM_MEMO.get(key)
    if cached is not memo.MISS:
        return list(cached)
    cur = list(constraints)
    for sym in syms:
        cur = eliminate_symbol(cur, sym)
    _ELIM_MEMO.put(key, tuple(cur))
    return cur


def eliminate_symbols_for_bounds(
    constraints: Sequence[Constraint], syms: Sequence[str]
) -> List[Constraint]:
    """Like :func:`eliminate_symbols` but only the *rational set* of the
    result is guaranteed, not its syntactic form.

    Interval-implied constraints are pruned between rounds, which keeps the
    quadratic FM blowup in check.  Use only where the caller consumes
    feasibility or bounds (both are representation-independent), never where
    the projected constraints become part of a set that user code sees.
    """
    obs.count("presburger.fm_eliminate", len(syms))
    if syms:
        obs.observe(
            "presburger.fm.eliminated_dims", len(syms), buckets=_DIM_BUCKETS
        )
    key = (tuple(constraints), tuple(syms))
    cached = _ELIM_BOUNDS_MEMO.get(key)
    if cached is not memo.MISS:
        return list(cached)
    cur = prune_implied_by_intervals(_dedupe(list(constraints)))
    for sym in syms:
        cur = eliminate_symbol(cur, sym)
        if len(cur) > 8:
            cur = prune_implied_by_intervals(cur)
    _ELIM_BOUNDS_MEMO.put(key, tuple(cur))
    return cur


def projected_bounds(
    constraints: Sequence[Constraint],
    var: str,
    keep: Sequence[str],
) -> List[Constraint]:
    """The constraints bounding ``var`` once everything but ``var`` and
    ``keep`` (outer loop vars and params) is projected away."""
    syms = set()
    for c in constraints:
        syms.update(c.expr.symbols())
    # Sorted, not set order: the FM elimination order decides which derived
    # constraints survive and hence the operand order of the emitted
    # max()/min()/ceild()/floord() — it must not depend on PYTHONHASHSEED.
    eliminate = sorted(s for s in syms if s != var and s not in keep)
    projected = eliminate_symbols(list(constraints), eliminate)
    return [c for c in projected if c.coeff(var)]


def constraint_symbols(constraints: Iterable[Constraint]) -> List[str]:
    seen: Dict[str, None] = {}
    for c in constraints:
        for s in c.expr.symbols():
            seen.setdefault(s)
    return list(seen)


# -- interval-propagation pruning -----------------------------------------

Interval = Tuple[Optional[int], Optional[int]]


def interval_bounds(constraints: Sequence[Constraint]) -> Dict[str, Interval]:
    """Per-symbol integer bounds implied by the single-symbol constraints.

    Equalities with a unit coefficient pin the symbol; inequalities tighten
    one side.  Symbols without single-symbol bounds are absent.
    """
    bounds: Dict[str, Interval] = {}
    for c in constraints:
        terms = c.expr.terms
        if len(terms) != 1:
            continue
        sid, a = terms[0]
        name = sym_name(sid)
        const = c.expr.const
        lo, hi = bounds.get(name, (None, None))
        if c.kind == EQ:
            # a*s + const == 0 (normalisation leaves |a| == 1 or a falsum).
            if const % a:
                lo, hi = 1, 0  # empty
            else:
                v = -const // a
                lo = v if lo is None else max(lo, v)
                hi = v if hi is None else min(hi, v)
        elif a > 0:
            b = ceil(-const / a)
            lo = b if lo is None else max(lo, b)
        else:
            b = floor(const / -a)
            hi = b if hi is None else min(hi, b)
        bounds[name] = (lo, hi)
    return bounds


def implied_by_intervals(c: Constraint, bounds: Dict[str, Interval]) -> bool:
    """Whether ``c`` holds everywhere on the box described by ``bounds``.

    Sound over both Q and Z: any point satisfying the single-symbol
    constraints the box came from also satisfies ``c``.
    """
    if c.kind != GE:
        return False
    lo = c.expr.const
    for sid, coef in c.expr.terms:
        b = bounds.get(sym_name(sid))
        if b is None:
            return False
        blo, bhi = b
        if coef > 0:
            if blo is None:
                return False
            lo += coef * blo
        else:
            if bhi is None:
                return False
            lo += coef * bhi
    return lo >= 0


def prune_implied_by_intervals(
    constraints: Sequence[Constraint],
) -> List[Constraint]:
    """Drop constraints rationally implied via cheap interval propagation.

    Two reductions, both preserving the rational (and integer) solution set
    exactly:

    * among inequalities sharing one coefficient pattern only the tightest
      constant survives (``e + c >= 0`` with minimal ``c``);
    * a multi-symbol inequality whose minimum over the single-symbol
      bounding box is non-negative is implied by those bounds and dropped.
    """
    tightest: Dict[tuple, int] = {}
    for c in constraints:
        if c.kind == GE:
            key = c.expr.terms
            const = c.expr.const
            if key not in tightest or const < tightest[key]:
                tightest[key] = const
    bounds = interval_bounds(constraints)
    out: List[Constraint] = []
    for c in constraints:
        if c.kind == GE:
            if c.expr.const != tightest.get(c.expr.terms):
                obs.count("presburger.prune_interval")
                continue  # a tighter same-pattern constraint exists
            if len(c.expr.terms) > 1 and implied_by_intervals(c, bounds):
                obs.count("presburger.prune_interval")
                continue
        out.append(c)
    return out


def rational_feasible(constraints: Sequence[Constraint]) -> bool:
    """Whether the conjunction has a rational solution (exact via FM)."""
    cur = prune_implied_by_intervals(_dedupe(constraints))
    for c in cur:
        if c.is_trivially_false():
            return False
    syms = constraint_symbols(cur)
    for sym in syms:
        cur = eliminate_symbol(cur, sym)
        for c in cur:
            if c.is_trivially_false():
                return False
        if len(cur) > 8:
            cur = prune_implied_by_intervals(cur)
    return True


def symbol_bounds(
    constraints: Sequence[Constraint], sym: str
) -> Tuple[Tuple[str, int, LinExpr], ...]:
    """The constraints that bound ``sym``, each split as ``(kind, a, rest)``
    for ``a*sym + rest``: what :func:`eval_bounds` evaluates."""
    out = []
    for c in constraints:
        a = c.coeff(sym)
        if a:
            out.append((c.kind, a, c.expr - LinExpr({sym: a})))
    return tuple(out)


def eval_bounds(
    entries: Sequence[Tuple[str, int, LinExpr]], binding: Mapping[str, int]
) -> Tuple[Optional[int], Optional[int]]:
    """Integer bounds of a symbol from its :func:`symbol_bounds` under
    ``binding`` of every other symbol; ``None`` is unbounded on that side,
    and ``(1, 0)`` an equality no integer satisfies."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for kind, a, rest in entries:
        val = rest.eval(binding)
        if kind == EQ:
            # a*sym + val == 0  ->  sym == -val / a
            if val % a != 0:
                return 1, 0  # empty
            point = -val // a
            lo = point if lo is None else max(lo, point)
            hi = point if hi is None else min(hi, point)
        elif a > 0:
            # sym >= ceil(-val / a), in exact integer arithmetic
            bound = -(val // a)
            lo = bound if lo is None else max(lo, bound)
        else:
            # sym <= floor(val / -a)
            bound = val // -a
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


def bounds_for_symbol(
    constraints: Sequence[Constraint], sym: str, binding: Dict[str, int]
) -> Tuple[Optional[int], Optional[int]]:
    """Integer bounds ``(lower, upper)`` for ``sym`` under ``binding`` of all
    other symbols; ``None`` means unbounded on that side."""
    return eval_bounds(symbol_bounds(constraints, sym), binding)


# -- the lexicographic scan ------------------------------------------------


class Unbounded(ValueError):
    """Raised by :func:`lex_points` with the symbol of a level open on
    either side as its one argument."""


def lex_tower(
    constraints: Sequence[Constraint], syms: Sequence[str]
) -> Optional[List[tuple]]:
    """The Fourier–Motzkin tower of ``constraints`` over ``syms``: level
    ``i`` is the :func:`symbol_bounds` of ``syms[i]`` once ``syms[i+1:]``
    are eliminated, so it evaluates under a binding of ``syms[:i]`` alone.
    ``None`` as soon as some projection is trivially false: no rational
    point, hence no integer one."""
    cur = list(constraints)
    levels = []
    for sym in reversed(syms):
        if any(c.is_trivially_false() for c in cur):
            return None
        levels.append(symbol_bounds(cur, sym))
        cur = eliminate_symbol(cur, sym)
    if any(c.is_trivially_false() for c in cur):
        return None
    return levels[::-1]


def lex_points(
    constraints: Sequence[Constraint],
    syms: Sequence[str],
    steps: Optional[Mapping[str, int]] = None,
) -> Iterator[Dict[str, int]]:
    """Every integer point of ``constraints`` over ``syms`` (all the symbols
    they mention) in lexicographic order, each a fresh dict checked against
    ``constraints``, since the :func:`lex_tower` bounds may over-approximate.
    A symbol in ``steps`` starts at its lower bound rounded down to a
    multiple of its step and advances by the step (tile origins on the
    global grid)."""
    levels = lex_tower(constraints, syms)
    if levels is None:
        return
    steps = steps or {}
    binding: Dict[str, int] = {}

    def walk(i: int) -> Iterator[Dict[str, int]]:
        if i == len(syms):
            if all(c.satisfied_by(binding) for c in constraints):
                yield dict(binding)
            return
        sym = syms[i]
        lo, hi = eval_bounds(levels[i], binding)
        if lo is None or hi is None:
            raise Unbounded(sym)
        step = steps.get(sym, 1)
        for val in range(lo - lo % step, hi + 1, step):
            binding[sym] = val
            yield from walk(i + 1)
        binding.pop(sym, None)

    yield from walk(0)


def find_integer_point(
    constraints: Sequence[Constraint],
    max_steps: int = 50000,
    max_range: int = 4096,
) -> Optional[Dict[str, int]]:
    """The first integer point down the :func:`lex_tower` of the symbols in
    the order the constraints mention them; ``None`` when provably none
    exists.  An unbounded symbol is tried at 0 alone and a range wider than
    ``max_range`` (or open on one side) is clipped, so a miss there proves
    nothing: it raises :class:`FeasibilityUndecided`
    (``presburger.integer_sample.undecided``), as does exhausting ``max_steps``.
    """
    obs.count("presburger.integer_sample")
    cur = _dedupe(constraints)
    syms = constraint_symbols(cur)
    levels = lex_tower(cur, syms)
    if levels is None:
        return None
    steps = 0
    clipped = False  # some level was guessed at 0 or cut to max_range

    def descend(level: int, binding: Dict[str, int]) -> Optional[Dict[str, int]]:
        nonlocal steps, clipped
        if level == len(syms):
            if all(c.satisfied_by(binding) for c in cur):
                return dict(binding)
            return None
        sym = syms[level]
        lo, hi = eval_bounds(levels[level], binding)
        if lo is None or hi is None or hi - lo > max_range:
            clipped = True
        if lo is None and hi is None:
            lo, hi = 0, 0
        elif lo is None:
            lo = hi - max_range
        elif hi is None:
            hi = lo + max_range
        if hi - lo > max_range:
            hi = lo + max_range
        for val in range(lo, hi + 1):
            steps += 1
            if steps > max_steps:
                raise FeasibilityUndecided(
                    f"integer search budget exhausted over {syms}"
                )
            binding[sym] = val
            found = descend(level + 1, binding)
            if found is not None:
                return found
        binding.pop(sym, None)
        return None

    result = descend(0, {})
    if result is None and clipped:
        obs.count("presburger.integer_sample.undecided")
        raise FeasibilityUndecided(f"integer search over {syms} clipped a range")
    if result is None and steps > max_steps * 0.9:  # pragma: no cover - safety
        raise FeasibilityUndecided("search terminated near budget; inconclusive")
    return result


def prune_redundant(constraints: Sequence[Constraint]) -> List[Constraint]:
    """Drop constraints implied (rationally) by the others.

    Constraints are GCD-normalised at construction time; here each
    inequality is tested against the rest — first with the cheap interval
    check (same verdict, no FM), then with the exact rational probe.
    """
    cur = _dedupe(constraints)
    kept: List[Constraint] = list(cur)
    i = 0
    while i < len(kept):
        candidate = kept[i]
        if candidate.kind == EQ:
            i += 1
            continue
        others = kept[:i] + kept[i + 1 :]
        if implied_by_intervals(candidate, interval_bounds(others)):
            obs.count("presburger.prune_interval")
            kept.pop(i)
            continue
        negs = candidate.negated()
        implied = all(not rational_feasible(list(others) + [n]) for n in negs)
        if implied:
            kept.pop(i)
        else:
            i += 1
    return kept
