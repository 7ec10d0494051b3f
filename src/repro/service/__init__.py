"""``repro.service`` — the compilation service layer.

Turns the one-shot ``repro.core.optimize`` pass into a reusable service:

* :mod:`fingerprint` — content-addressed SHA-256 keys for compile requests;
* :mod:`cache` — the tiered result cache (LRU memory over a store fabric);
* :mod:`stores` — pluggable persistent tiers: local directory, shared
  HTTP remote, layered local+remote with write-behind;
* :mod:`driver` — deduplicating, parallel batch-compile driver.

Names load lazily on first attribute access: the compiler reaches
:mod:`fingerprint` on every compile, and that must not drag the cache,
the stores and the driver (which imports the compiler) in with it.
"""

from __future__ import annotations

__all__ = [
    "CacheStats",
    "CacheStore",
    "CompileCache",
    "CompileOutcome",
    "CompileRequest",
    "HTTPStore",
    "LayeredStore",
    "LocalStore",
    "StoreServer",
    "cached_optimize",
    "compile_batch",
    "default_cache",
    "default_cache_dir",
    "fingerprint_program",
    "fingerprint_request",
    "load_program_memos",
    "reset_default_cache",
    "resolve_cache",
    "resolve_store",
    "spill_program_memos",
]

_LAZY = {
    "CacheStats": ("cache", "CacheStats"),
    "CompileCache": ("cache", "CompileCache"),
    "default_cache": ("cache", "default_cache"),
    "default_cache_dir": ("cache", "default_cache_dir"),
    "reset_default_cache": ("cache", "reset_default_cache"),
    "resolve_cache": ("cache", "resolve_cache"),
    "CacheStore": ("stores", "CacheStore"),
    "HTTPStore": ("stores", "HTTPStore"),
    "LayeredStore": ("stores", "LayeredStore"),
    "LocalStore": ("stores", "LocalStore"),
    "StoreServer": ("stores", "StoreServer"),
    "resolve_store": ("stores", "resolve_store"),
    "CompileOutcome": ("driver", "CompileOutcome"),
    "CompileRequest": ("driver", "CompileRequest"),
    "cached_optimize": ("driver", "cached_optimize"),
    "compile_batch": ("driver", "compile_batch"),
    "load_program_memos": ("driver", "load_program_memos"),
    "spill_program_memos": ("driver", "spill_program_memos"),
    "fingerprint_program": ("fingerprint", "fingerprint_program"),
    "fingerprint_request": ("fingerprint", "fingerprint_request"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
