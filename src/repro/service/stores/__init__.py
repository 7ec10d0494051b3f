"""``repro.service.stores`` — pluggable persistent cache tiers.

:class:`~repro.service.cache.CompileCache` is a tiering policy (memory
LRU + the counters of what it decides) over one :class:`CacheStore`;
each store counts what happens inside it in its own :class:`TierStats`.
This package holds the store implementations:

* :class:`LocalStore` — sharded local directory (atomic writes, put
  skip, running counters, TTL/size GC);
* :class:`HTTPStore` / :class:`StoreServer` — the shared remote tier: a
  tiny stdlib HTTP store server and its blocking client;
* :class:`LayeredStore` — local-first reads with remote read-through +
  backfill, and write-behind flushing off the compile hot path.

``resolve_store`` turns a spec string back into a store — the same
strings :attr:`CacheStore.spec` produces — so a tier configuration can
travel to worker processes or the CLI as one flat string:

* a directory path → :class:`LocalStore`;
* ``http://host:port`` → :class:`HTTPStore`;
* ``tiered:<local>|<remote>`` → :class:`LayeredStore` over the two
  (parsed by :func:`split_tiered` only).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from .base import (
    KINDS,
    CacheStore,
    EntryInfo,
    GCReport,
    StoreUnavailable,
    TierStats,
)
from .layered import LayeredStore
from .local import LocalStore, default_gc_budget
from .remote import HTTPStore, StoreServer

TIERED_PREFIX = "tiered:"


def split_tiered(spec: str) -> Optional[Tuple[str, str]]:
    """``(local, remote)`` of a ``tiered:<local>|<remote>`` spec, ``None``
    for any other spelling; ``ValueError`` when a half is missing."""
    if not spec.startswith(TIERED_PREFIX):
        return None
    local, sep, remote = spec[len(TIERED_PREFIX):].partition("|")
    if not sep or not local or not remote:
        raise ValueError(
            f"tiered cache spec must be 'tiered:<local>|<remote>', got {spec!r}"
        )
    return local, remote


def resolve_store(
    spec: str,
    tier: Optional[str] = None,
    gc_max_bytes: Optional[int] = None,
    gc_max_age: Optional[float] = None,
) -> CacheStore:
    """A :class:`CacheStore` from its spec string (see module docstring).

    GC budgets apply to the local tier (layered: the local side only;
    the remote store server owns its own budget).
    """
    spec = os.fspath(spec)
    tiered = split_tiered(spec)
    if tiered is not None:
        local_spec, remote_spec = tiered
        return LayeredStore(
            resolve_store(
                local_spec, gc_max_bytes=gc_max_bytes, gc_max_age=gc_max_age
            ),
            resolve_store(remote_spec, tier="remote"),
        )
    if spec.startswith("http://"):
        return HTTPStore(spec, tier=tier)
    return LocalStore(
        spec, tier=tier, gc_max_bytes=gc_max_bytes, gc_max_age=gc_max_age
    )


__all__ = [
    "KINDS",
    "TIERED_PREFIX",
    "CacheStore",
    "EntryInfo",
    "GCReport",
    "HTTPStore",
    "LayeredStore",
    "LocalStore",
    "StoreServer",
    "StoreUnavailable",
    "TierStats",
    "default_gc_budget",
    "resolve_store",
    "split_tiered",
]
