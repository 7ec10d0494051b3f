"""``repro.serve`` — a long-lived compile server with warm state.

Batch mode (:func:`repro.service.compile_batch`) amortizes work *within*
one process invocation; this package amortizes it *across* invocations.
A daemon keeps the in-memory LRU, the presburger memo tables and the
metrics registry hot, deduplicates identical in-flight requests
(single-flight), and answers a live ``repro-metrics/1`` snapshot on its
``stats`` endpoint.

* :mod:`protocol` — the ``repro-serve/1`` newline-delimited JSON-RPC wire
  format, validated on both ends;
* :mod:`singleflight` — key-addressed dedup of concurrent work;
* :mod:`server` — the asyncio daemon (:class:`CompileServer`), its config
  and a background-thread harness (:class:`ServerThread`);
* :mod:`client` — the blocking :class:`ServeClient` library.

``protocol`` is imported eagerly (tiny; stdlib plus ``repro.obs``); the server and
client load lazily on first attribute access so ``import repro.serve``
stays cheap.
"""

from __future__ import annotations

from . import protocol
from .protocol import PROTOCOL

__all__ = [
    "CompileServer",
    "PROTOCOL",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SingleFlight",
    "default_socket_path",
    "protocol",
    "wait_for_server",
]

_LAZY = {
    "CompileServer": ("server", "CompileServer"),
    "ServeConfig": ("server", "ServeConfig"),
    "ServerThread": ("server", "ServerThread"),
    "default_socket_path": ("server", "default_socket_path"),
    "ServeClient": ("client", "ServeClient"),
    "ServeError": ("client", "ServeError"),
    "wait_for_server": ("client", "wait_for_server"),
    "SingleFlight": ("singleflight", "SingleFlight"),
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
