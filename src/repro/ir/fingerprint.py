"""Content-addressed fingerprint of a :class:`~repro.ir.Program`.

A program's digest is a property of its structure and of nothing above
``repro.ir``: two programs built independently (different builder objects,
process, machine) hash identically as long as their statements, domains,
accesses, tensors, parameters and live-outs agree.  The scheduler keys its
memo on it and :mod:`repro.service.fingerprint` builds request keys from it.

The digest is salted with :data:`SCHEMA_VERSION`; bump it whenever the
optimizer's observable behaviour changes so stale cache entries can never
be served against new code.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Dict, List

import numpy as np

from ..presburger import Set
from .program import Program
from .statement import Statement
from .tensor import Tensor

#: Bump on any change to the optimizer or to this serialization format.
#: v3: byte-stable codegen (sorted FM elimination order) + memo spill store.
#: v4: OptimizeResult.tile_sizes now reports the effective (clipped or
#: defaulted) sizes, so v3 cached results deserialize with stale fields.
#: v5: request keys hash the program's digest, not the program again.
#: v6: apply_range lists a composition's constraints in another order.
SCHEMA_VERSION = 6

SALT = f"repro-compile-v{SCHEMA_VERSION}"


def canonical_set(s: Set) -> Dict[str, object]:
    """Order-independent structural form of an integer set."""
    pieces: List[List[str]] = []
    for piece in s.pieces:
        pieces.append(sorted(str(c) for c in piece.constraints))
    pieces.sort()
    return {
        "name": s.space.name,
        "dims": list(s.space.dims),
        "params": sorted(s.space.params),
        "pieces": pieces,
    }


def canonical_statement(stmt: Statement) -> Dict[str, object]:
    return {
        "name": stmt.name,
        "kind": stmt.kind,
        "reduce_op": stmt.reduce_op if stmt.kind == "reduce" else None,
        "domain": canonical_set(stmt.domain),
        "lhs": str(stmt.lhs),
        "rhs": str(stmt.rhs),
    }


def canonical_tensor(t: Tensor) -> Dict[str, object]:
    return {
        "name": t.name,
        "shape": [str(s) for s in t.shape],
        "dtype": np.dtype(t.dtype).str,
    }


def canonical_program(program: Program) -> Dict[str, object]:
    """The structural identity of a program (statement order matters —
    textual order is the initial schedule)."""
    return {
        "name": program.name,
        "statements": [canonical_statement(s) for s in program.statements],
        "tensors": [
            canonical_tensor(program.tensors[k]) for k in sorted(program.tensors)
        ],
        "params": {k: program.params[k] for k in sorted(program.params)},
        "liveout": list(program.liveout),
    }


def digest_of(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Programs are immutable once built (:class:`~repro.ir.program.Program`
#: states the contract), so the structural digest can be memoized per object.
#: Weak keys keep the memo from pinning programs or surviving id reuse.
_program_digests: "weakref.WeakKeyDictionary[Program, str]" = (
    weakref.WeakKeyDictionary()
)


def fingerprint_program(program: Program) -> str:
    """Digest of the program structure alone (no target, no tile sizes)."""
    digest = _program_digests.get(program)
    if digest is None:
        digest = digest_of({"salt": SALT, "program": canonical_program(program)})
        _program_digests[program] = digest
    return digest
