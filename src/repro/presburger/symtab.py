"""Shared symbol table: interned names with dense integer ids.

Every symbol (iterator, tile-dimension or parameter name) that enters the
presburger layer is registered here once.  :class:`LinExpr` stores its
coefficient vector as a tuple of ``(symbol_id, coeff)`` pairs sorted by id,
so merging two expressions is a linear walk over small int pairs instead of
dict rebuilding, and structural hashing never touches strings.

Ids are process-local and monotonically increasing; they never leak into
pickles (``LinExpr`` serialises by name), so results stay portable across
processes that share a cache directory.
"""

from __future__ import annotations

import sys
from typing import Dict, List


class SymbolTable:
    """Bidirectional name <-> id registry (append-only)."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def id_of(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            name = sys.intern(name)
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def name_of(self, i: int) -> str:
        return self._names[i]

    def __len__(self) -> int:
        return len(self._names)


#: The process-wide table shared by every LinExpr.
SYMBOLS = SymbolTable()

sym_id = SYMBOLS.id_of
sym_name = SYMBOLS.name_of
