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

_LAZY = {
    "CacheStats": ("cache", "CacheStats"),
    "CompileCache": ("cache", "CompileCache"),
    "default_cache": ("cache", "default_cache"),
    "default_cache_dir": ("cache", "default_cache_dir"),
    "reset_default_cache": ("cache", "reset_default_cache"),
    "resolve_cache": ("cache", "resolve_cache"),
    "LocalStore": ("store", "LocalStore"),
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
