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

``protocol`` is imported eagerly (tiny; the stdlib only); the server and
client load lazily on first attribute access so ``import repro.serve``
stays cheap.
"""

from __future__ import annotations

from .._lazy import lazy_exports
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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".server": ("CompileServer", "ServeConfig", "ServerThread", "default_socket_path"),
    ".client": ("ServeClient", "ServeError", "wait_for_server"),
    ".singleflight": ("SingleFlight",),
})
