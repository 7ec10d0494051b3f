"""Affine constraints: equalities and inequalities over :class:`LinExpr`.

A constraint is stored in the normal form ``expr == 0`` or ``expr >= 0`` with
integer coefficients divided by their GCD.  Inequality constants are
tightened to the integer hull of the single constraint (``e >= 0`` with
``gcd(coeffs) = g`` becomes ``e' >= 0`` with ``e' = floor(e / g)`` applied to
the constant), which is exact for one constraint at a time.
"""

from __future__ import annotations

from typing import Mapping, Union

from .linexpr import LinExpr

EQ = "=="
GE = ">="


class Constraint:
    """``expr == 0`` (kind EQ) or ``expr >= 0`` (kind GE)."""

    __slots__ = ("expr", "kind", "_hash")

    def __init__(self, expr: LinExpr, kind: str):
        if kind not in (EQ, GE):
            raise ValueError(f"bad constraint kind {kind!r}")
        expr = _normalise(expr, kind)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Constraint is immutable")

    def __getstate__(self):
        return (self.expr, self.kind)

    def __setstate__(self, state):
        object.__setattr__(self, "expr", state[0])
        object.__setattr__(self, "kind", state[1])
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def eq(lhs, rhs=0) -> "Constraint":
        return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs), EQ)

    @staticmethod
    def ge(lhs, rhs=0) -> "Constraint":
        """lhs >= rhs"""
        return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs), GE)

    @staticmethod
    def le(lhs, rhs=0) -> "Constraint":
        """lhs <= rhs"""
        return Constraint(LinExpr.coerce(rhs) - LinExpr.coerce(lhs), GE)

    @staticmethod
    def lt(lhs, rhs) -> "Constraint":
        """lhs < rhs (integer: lhs <= rhs - 1)"""
        return Constraint(LinExpr.coerce(rhs) - LinExpr.coerce(lhs) - 1, GE)

    @staticmethod
    def gt(lhs, rhs) -> "Constraint":
        """lhs > rhs (integer: lhs >= rhs + 1)"""
        return Constraint(LinExpr.coerce(lhs) - LinExpr.coerce(rhs) - 1, GE)

    # -- queries -----------------------------------------------------------

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        return self.expr.const == 0 if self.kind == EQ else self.expr.const >= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        return self.expr.const != 0 if self.kind == EQ else self.expr.const < 0

    def involves(self, syms) -> bool:
        return self.expr.involves(syms)

    def coeff(self, sym: str) -> int:
        return self.expr.coeff(sym)

    def satisfied_by(self, binding: Mapping[str, int]) -> bool:
        val = self.expr.eval(binding)
        return val == 0 if self.kind == EQ else val >= 0

    # -- transforms --------------------------------------------------------

    def substitute(self, binding: Mapping[str, Union[LinExpr, int]]) -> "Constraint":
        expr = self.expr.substitute(binding)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        expr = self.expr.rename(mapping)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def negated(self) -> tuple:
        """The negation as a tuple of constraints whose *union* is ¬self.

        ``¬(e >= 0)`` is ``-e - 1 >= 0``; ``¬(e == 0)`` is the union of
        ``e - 1 >= 0`` and ``-e - 1 >= 0``.
        """
        if self.kind == GE:
            return (Constraint(-self.expr - 1, GE),)
        return (Constraint(self.expr - 1, GE), Constraint(-self.expr - 1, GE))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind == other.kind and self.expr == other.expr

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.expr))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Constraint({self})"

    def __str__(self) -> str:
        return f"{self.expr} {self.kind} 0"


def _normalise(expr: LinExpr, kind: str) -> LinExpr:
    g = expr.content()
    if g <= 1:
        # Content 0 (constant) or already GCD-reduced: nothing to divide.
        return expr
    if kind == EQ:
        if expr.const % g:
            # No integer solutions; keep a canonical falsum: 0 == 1.
            return LinExpr({}, 1)
        return expr.scale_down_exact(g)
    # GE: divide coefficients by g, floor the constant (integer tightening).
    coeffs = {s: c // g for s, c in expr.coeffs.items()}
    const = expr.const // g  # floor division: tightens toward feasibility
    return LinExpr(coeffs, const)
