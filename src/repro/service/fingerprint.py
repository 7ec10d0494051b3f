"""Content-addressed fingerprints for compile requests.

A fingerprint is a SHA-256 digest over a *canonical* serialization of
``(Program, target, tile_sizes, startup heuristic)``.  The program enters
as its own structural digest (:mod:`repro.ir.fingerprint`, which also owns
the canonical forms, the per-object digest memo and :data:`SCHEMA_VERSION`,
the salt of every key); this module adds the request half.  That is what
makes the compile cache content-addressed rather than identity-addressed.

The request half is memoized by value (:func:`_request_digest`): a warm
daemon or a sweep asks for the same few keys over and over, and each
answer is a function of the program's digest, the target's fields, the
tile tuple and the heuristic alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Union

from ..core.tile_shapes import TARGETS
from ..ir import Program
from ..ir.fingerprint import SALT, digest_of, fingerprint_program

#: The :class:`~repro.core.tile_shapes.TargetSpec` fields a key depends on.
_TARGET_FIELDS = (
    "name", "m_cap", "min_m", "max_recompute", "max_recompute_ratio", "scratch_bytes",
)

#: How many request digests :func:`fingerprint_request` keeps.
REQUEST_DIGESTS = 4096


def canonical_target(target: Union[str, object]) -> Dict[str, object]:
    """Serialize a target spec by value, resolving name aliases first.

    An unknown target name still fingerprints (it will fail in
    ``optimize`` itself) so one bad request cannot kill a whole batch.
    """
    if isinstance(target, str):
        if target not in TARGETS:
            return {"name": target, "unresolved": True}
        target = TARGETS[target]
    return {f: getattr(target, f) for f in _TARGET_FIELDS}


def _target_key(target: Union[str, object]) -> tuple:
    """The canonical target as ``(field, type, value)`` triples: a name
    and its spec get one key, and a spec with an ``int`` where another
    has the equal ``float`` (``8`` and ``8.0`` serialize apart) another."""
    return tuple((k, type(v), v) for k, v in canonical_target(target).items())


#: The keys of the target names, which never change.
_NAMED_TARGET_KEYS = {name: _target_key(name) for name in TARGETS}


def _canonical(program_digest: str, target: Dict[str, object], tile_sizes, startup):
    return {
        "salt": SALT,
        "program": program_digest,
        "target": target,
        "tile_sizes": list(tile_sizes) if tile_sizes is not None else None,
        "startup": startup,
    }


def canonical_request(
    program: Program,
    target: Union[str, object] = "cpu",
    tile_sizes: Optional[Sequence[int]] = None,
    startup: str = "smartfuse",
) -> Dict[str, object]:
    return _canonical(
        fingerprint_program(program), canonical_target(target), tile_sizes, startup
    )


@lru_cache(maxsize=REQUEST_DIGESTS)
def _request_digest(program_digest: str, target: tuple, tile_sizes, startup: str) -> str:
    """:func:`fingerprint_request` of a key whose every value serializes
    by its type and value; ``target`` is a :func:`_target_key`."""
    fields = {name: value for name, _, value in target}
    return digest_of(_canonical(program_digest, fields, tile_sizes, startup))


def fingerprint_request(
    program: Program,
    target: Union[str, object] = "cpu",
    tile_sizes: Optional[Sequence[int]] = None,
    startup: str = "smartfuse",
) -> str:
    """The cache key of one ``optimize()`` invocation."""
    if tile_sizes is not None:
        tile_sizes = tuple(tile_sizes)
    if type(startup) is not str or (
        tile_sizes is not None and any(type(s) is not int for s in tile_sizes)
    ):
        # A value the memo's key cannot tell from an equal one of another
        # type (``True`` and ``1``) is hashed as it comes.
        return digest_of(canonical_request(program, target, tile_sizes, startup))
    named = _NAMED_TARGET_KEYS.get(target) if isinstance(target, str) else None
    return _request_digest(
        fingerprint_program(program),
        named or _target_key(target),
        tile_sizes,
        startup,
    )
