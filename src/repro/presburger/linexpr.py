"""Exact integer affine expressions over named symbols.

``LinExpr`` is the shared currency of the whole package: constraints,
schedules, access functions and tile bounds are all built from them.  All
arithmetic is exact over Python integers.

Internally an expression is an interned, immutable tuple of
``(symbol_id, coeff)`` pairs sorted by id over the shared
:data:`~repro.presburger.symtab.SYMBOLS` table, plus a constant.  Arithmetic
merges those tuples directly (no intermediate dicts) and routes results
through a hash-consing table, so structurally equal expressions are usually
the *same* object: hashing is a cached-int read and equality is an ``is``
check on the hot paths.  The ``coeffs`` mapping view is materialised lazily
for the callers that want a dict.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, Mapping, Tuple, Union

from .symtab import sym_id, sym_name

Number = int

#: Hash-consing table: (terms, const) -> the canonical LinExpr instance.
#: Cleared wholesale when it grows past the cap — interning is an
#: optimisation only; equality falls back to structural comparison.
_INTERN: Dict[tuple, "LinExpr"] = {}
_INTERN_CAP = 1 << 17


def clear_intern_table() -> None:
    """Drop all hash-consed expressions (used by cold-path benchmarks)."""
    _INTERN.clear()


class LinExpr:
    """An affine expression ``sum(coeff[s] * s) + const`` with integer coeffs.

    Immutable.  Symbols are plain strings (iterator, tile-dimension or
    parameter names).  Zero coefficients are normalised away so equality and
    hashing behave structurally.
    """

    __slots__ = ("terms", "const", "_hash", "_coeffs")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        terms = []
        if coeffs:
            for sym, c in coeffs.items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficient for {sym!r} must be int, got {type(c)}")
                if c != 0:
                    terms.append((sym_id(sym), c))
        if not isinstance(const, int):
            raise TypeError(f"constant must be int, got {type(const)}")
        terms.sort()
        _init(self, tuple(terms), const)
        key = (self.terms, const)
        if key not in _INTERN and len(_INTERN) < _INTERN_CAP:
            _INTERN[key] = self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LinExpr is immutable")

    def __getstate__(self):
        # Serialise by *name*: symbol ids are process-local.
        return (dict(self.coeffs), self.const)

    def __setstate__(self, state):
        coeffs, const = state[0], state[1]
        terms = tuple(sorted((sym_id(s), c) for s, c in coeffs.items() if c))
        _init(self, terms, const)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, terms: Tuple[Tuple[int, int], ...], const: int) -> "LinExpr":
        """Interning fast path for pre-normalised ``terms`` (sorted, no zeros)."""
        key = (terms, const)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        _init(self, terms, const)
        if len(_INTERN) >= _INTERN_CAP:
            _INTERN.clear()
        _INTERN[key] = self
        return self

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr._make(((sym_id(name), 1),), 0)

    @staticmethod
    def const_expr(value: int) -> "LinExpr":
        if not isinstance(value, int):
            raise TypeError(f"constant must be int, got {type(value)}")
        return LinExpr._make((), value)

    @staticmethod
    def coerce(value: Union["LinExpr", int, str]) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, int):
            return LinExpr._make((), value)
        if isinstance(value, str):
            return LinExpr.var(value)
        raise TypeError(f"cannot coerce {value!r} to LinExpr")

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Dict[str, int]:
        """Mapping view ``{symbol name: coeff}`` (materialised lazily)."""
        d = self._coeffs
        if d is None:
            d = {sym_name(i): c for i, c in self.terms}
            object.__setattr__(self, "_coeffs", d)
        return d

    def symbols(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, sym: str) -> int:
        return self.coeffs.get(sym, 0)

    def is_constant(self) -> bool:
        return not self.terms

    def involves(self, syms: Iterable[str]) -> bool:
        d = self.coeffs
        return any(s in d for s in syms)

    def content(self) -> int:
        """GCD of all coefficients (not the constant); 0 for constant exprs."""
        g = 0
        for _, c in self.terms:
            g = gcd(g, c)
        return abs(g)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        if isinstance(other, int):
            if other == 0:
                return self
            return LinExpr._make(self.terms, self.const + other)
        if not isinstance(other, LinExpr):
            other = LinExpr.coerce(other)
        a, b = self.terms, other.terms
        if not b:
            return self if other.const == 0 else LinExpr._make(a, self.const + other.const)
        if not a:
            return other if self.const == 0 else LinExpr._make(b, self.const + other.const)
        return LinExpr._make(_merge(a, b, 1), self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._make(tuple((s, -c) for s, c in self.terms), -self.const)

    def __sub__(self, other) -> "LinExpr":
        if isinstance(other, int):
            if other == 0:
                return self
            return LinExpr._make(self.terms, self.const - other)
        if not isinstance(other, LinExpr):
            other = LinExpr.coerce(other)
        if not other.terms:
            return self if other.const == 0 else LinExpr._make(self.terms, self.const - other.const)
        return LinExpr._make(_merge(self.terms, other.terms, -1), self.const - other.const)

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def __mul__(self, factor: int) -> "LinExpr":
        if not isinstance(factor, int):
            raise TypeError("LinExpr can only be scaled by an int")
        if factor == 1:
            return self
        if factor == 0:
            return LinExpr._make((), 0)
        return LinExpr._make(
            tuple((s, c * factor) for s, c in self.terms), self.const * factor
        )

    __rmul__ = __mul__

    def scale_down_exact(self, divisor: int) -> "LinExpr":
        if divisor == 0:
            raise ZeroDivisionError
        terms = []
        for s, c in self.terms:
            if c % divisor:
                raise ValueError(f"{self} not exactly divisible by {divisor}")
            terms.append((s, c // divisor))
        if self.const % divisor:
            raise ValueError(f"{self} not exactly divisible by {divisor}")
        return LinExpr._make(tuple(terms), self.const // divisor)

    # -- substitution ------------------------------------------------------

    def substitute(self, binding: Mapping[str, Union["LinExpr", int]]) -> "LinExpr":
        """Replace symbols with expressions or integers."""
        if not self.terms:
            return self
        hit = False
        for s, _ in self.terms:
            if sym_name(s) in binding:
                hit = True
                break
        if not hit:
            return self
        acc: Dict[int, int] = {}
        const = self.const
        for s, c in self.terms:
            value = binding.get(sym_name(s))
            if value is None:
                acc[s] = acc.get(s, 0) + c
            elif isinstance(value, int):
                const += c * value
            else:
                value = LinExpr.coerce(value)
                for s2, c2 in value.terms:
                    acc[s2] = acc.get(s2, 0) + c * c2
                const += c * value.const
        terms = tuple(sorted((s, c) for s, c in acc.items() if c))
        return LinExpr._make(terms, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        if not self.terms:
            return self
        changed = False
        out: Dict[int, int] = {}
        for s, c in self.terms:
            name = sym_name(s)
            new = mapping.get(name, name)
            if new != name:
                changed = True
            # Two symbols renamed to one name add up, as in substitute().
            sid = sym_id(new)
            out[sid] = out.get(sid, 0) + c
        if not changed:
            return self
        terms = tuple(sorted((s, c) for s, c in out.items() if c))
        return LinExpr._make(terms, self.const)

    def eval(self, binding: Mapping[str, int]) -> int:
        total = self.const
        for s, c in self.terms:
            total += c * binding[sym_name(s)]
        return total

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts = []
        coeffs = self.coeffs
        for sym in sorted(coeffs):
            c = coeffs[sym]
            if c == 1:
                parts.append(f"+ {sym}")
            elif c == -1:
                parts.append(f"- {sym}")
            elif c > 0:
                parts.append(f"+ {c}{sym}")
            else:
                parts.append(f"- {-c}{sym}")
        if self.const > 0 or not parts:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        return text


def _init(self: LinExpr, terms: Tuple[Tuple[int, int], ...], const: int) -> None:
    object.__setattr__(self, "terms", terms)
    object.__setattr__(self, "const", const)
    object.__setattr__(self, "_hash", hash((terms, const)))
    object.__setattr__(self, "_coeffs", None)


def _merge(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...], sign: int
) -> Tuple[Tuple[int, int], ...]:
    """Merge two id-sorted term tuples: ``a + sign*b`` (zeros dropped)."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        sa, ca = a[i]
        sb, cb = b[j]
        if sa == sb:
            c = ca + sign * cb
            if c:
                out.append((sa, c))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append((sb, sign * cb))
            j += 1
    if i < la:
        out.extend(a[i:])
    while j < lb:
        sb, cb = b[j]
        out.append((sb, sign * cb))
        j += 1
    return tuple(out)


V = LinExpr.var
C = LinExpr.const_expr
