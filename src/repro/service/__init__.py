"""``repro.service`` — the compilation service layer.

Turns the one-shot ``repro.core.optimize`` pass into a reusable service:

* :mod:`fingerprint` — content-addressed SHA-256 keys for compile requests;
* :mod:`cache` — the two-tier result cache (LRU memory over one store);
* :mod:`store` — that store: one sharded directory, shared by every
  process given the same one;
* :mod:`driver` — deduplicating, caching batch-compile driver.

Names load lazily on first attribute access: the compiler reaches
:mod:`fingerprint` on every compile, and that must not drag the cache,
the store and the driver (which imports the compiler) in with it.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "CacheStats",
    "CompileCache",
    "CompileOutcome",
    "CompileRequest",
    "LocalStore",
    "cached_optimize",
    "compile_batch",
    "default_cache",
    "default_cache_dir",
    "fingerprint_program",
    "fingerprint_request",
    "load_program_memos",
    "reset_default_cache",
    "resolve_cache",
    "spill_program_memos",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": (
        "CacheStats", "CompileCache", "default_cache", "default_cache_dir",
        "reset_default_cache", "resolve_cache",
    ),
    ".store": ("LocalStore",),
    ".driver": (
        "CompileOutcome", "CompileRequest", "cached_optimize", "compile_batch",
        "load_program_memos", "spill_program_memos",
    ),
    ".fingerprint": ("fingerprint_program", "fingerprint_request"),
})
