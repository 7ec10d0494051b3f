"""Content-addressed fingerprints for compile requests.

A fingerprint is a SHA-256 digest over a *canonical* serialization of
``(Program, target, tile_sizes, startup heuristic)``.  The program enters
as its own structural digest (:mod:`repro.ir.fingerprint`, which also owns
the canonical forms, the per-object digest memo and :data:`SCHEMA_VERSION`,
the salt of every key); this module adds the request half.  That is what
makes the compile cache content-addressed rather than identity-addressed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from ..ir import Program
from ..ir.fingerprint import SALT, digest_of, fingerprint_program


def canonical_target(target: Union[str, object]) -> Dict[str, object]:
    """Serialize a target spec by value, resolving name aliases first.

    An unknown target name still fingerprints (it will fail in
    ``optimize`` itself) so one bad request cannot kill a whole batch.
    """
    from ..core.tile_shapes import TARGETS, TargetSpec

    if isinstance(target, str):
        if target not in TARGETS:
            return {"name": target, "unresolved": True}
        spec: TargetSpec = TARGETS[target]
    else:
        spec = target
    return {
        "name": spec.name,
        "m_cap": spec.m_cap,
        "min_m": spec.min_m,
        "max_recompute": spec.max_recompute,
        "max_recompute_ratio": spec.max_recompute_ratio,
        "scratch_bytes": spec.scratch_bytes,
    }


def canonical_request(
    program: Program,
    target: Union[str, object] = "cpu",
    tile_sizes: Optional[Sequence[int]] = None,
    startup: str = "smartfuse",
) -> Dict[str, object]:
    return {
        "salt": SALT,
        "program": fingerprint_program(program),
        "target": canonical_target(target),
        "tile_sizes": list(tile_sizes) if tile_sizes is not None else None,
        "startup": startup,
    }


def fingerprint_request(
    program: Program,
    target: Union[str, object] = "cpu",
    tile_sizes: Optional[Sequence[int]] = None,
    startup: str = "smartfuse",
) -> str:
    """The cache key of one ``optimize()`` invocation."""
    return digest_of(canonical_request(program, target, tile_sizes, startup))
