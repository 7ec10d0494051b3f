"""Blocking client for the repro compile server.

Plain sockets and :mod:`repro.serve.protocol` — no asyncio on the client
side, so scripts, benchmarks and tests call the daemon like a function::

    with ServeClient(socket_path="/tmp/serve.sock") as client:
        out = client.compile("harris", size=512)
        print(out["fingerprint"], out["from_cache"])

Each :class:`ServeClient` holds one connection; it is safe to share
across threads (a lock serializes request/reply pairs on the wire — the
*server* interleaves work internally, so N threads still exercise
single-flight dedup through N separate clients, which is what
``bench_serve.py`` does).  Structured server errors surface as
:class:`ServeError` carrying the protocol error code.
"""

from __future__ import annotations

import socket
import threading
import time
from functools import partialmethod
from typing import Mapping, Optional

from . import protocol
from ..obs import distributed


class ServeError(RuntimeError):
    """A structured error reply from the server (or a broken reply)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One connection to a compile server, unix-socket or TCP."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 600.0,
    ):
        if socket_path is None and host is None:
            raise ValueError("need a socket_path or a host/port")
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(socket_path)
        else:
            sock = socket.create_connection((host, port or 0), timeout=timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    # -- plumbing ----------------------------------------------------------

    def call(self, method: str, params: Optional[Mapping] = None) -> dict:
        """One request/reply round trip; returns the ``result`` object."""
        with self._lock:
            self._next_id += 1
            rid = self._next_id
            self._sock.sendall(
                protocol.encode(protocol.request(method, params, id=rid))
            )
            line = self._file.readline()
        if not line:
            raise ServeError("internal", "server closed the connection")
        reply = protocol.decode(line)
        errors = protocol.validate_response(reply)
        if errors:
            raise ServeError("internal", "bad response: " + "; ".join(errors))
        if reply["id"] != rid:
            raise ServeError(
                "internal", f"response id {reply['id']!r} != request id {rid!r}"
            )
        if not reply["ok"]:
            err = reply["error"]
            raise ServeError(err["code"], err["message"])
        return reply["result"]

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- verbs -------------------------------------------------------------

    def work(self, verb: str, workload: str, **params) -> dict:
        """One work-verb request.  The keyword params are the verb's row
        of :data:`protocol.PARAMS`; ``None`` (like leaving one out) means
        the server's default.

        ``trace`` attaches a distributed-trace context (mint one with
        :meth:`new_trace`); a sampled context makes the daemon return its
        span tree in the result's ``trace`` field for stitching.
        """
        unknown = sorted(set(params) - set(protocol.PARAMS[verb]))
        if unknown:
            raise TypeError(f"{verb} takes no param {', '.join(unknown)}")
        wire = {"workload": workload}
        for name, value in params.items():
            if value is not None:
                wire[name] = value.to_wire() if name == "trace" else value
        return self.call(verb, wire)

    compile = partialmethod(work, "compile")
    autotune = partialmethod(work, "autotune")
    partition = partialmethod(work, "partition")

    @staticmethod
    def new_trace(sampled: bool = True) -> distributed.TraceContext:
        """Mint a fresh trace context for a traced request."""
        return distributed.new_context(sampled=sampled)

    def stats(self) -> dict:
        return self.call("stats")

    def watch(self, since: int = 0, limit: Optional[int] = None) -> dict:
        """Telemetry samples newer than ``since`` from the daemon's ring."""
        params = {"since": since}
        if limit is not None:
            params["limit"] = limit
        return self.call("watch", params)

    def health(self) -> dict:
        return self.call("health")

    def shutdown(self) -> dict:
        return self.call("shutdown")


def wait_for_server(
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    timeout: float = 10.0,
    interval: float = 0.05,
) -> None:
    """Block until a server answers ``health`` on the endpoint.

    Raises :class:`TimeoutError` if none does within ``timeout`` seconds —
    the handshake ``repro client --wait`` and the CI smoke job rely on.
    """
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(
                socket_path=socket_path, host=host, port=port, timeout=5.0
            ) as client:
                client.health()
                return
        except (OSError, ServeError) as exc:
            last = exc
            time.sleep(interval)
    where = socket_path or f"{host}:{port}"
    raise TimeoutError(f"no compile server answering at {where} ({last!r})")
