"""The shared remote tier: a tiny stdlib HTTP store and its client.

This is the sccache-style piece: one :class:`StoreServer` (a
``ThreadingHTTPServer`` wrapping any :class:`~repro.service.stores.base.
CacheStore`, normally a :class:`~repro.service.stores.local.LocalStore`
on a directory) and N compile daemons whose
:class:`~repro.service.stores.layered.LayeredStore` read through and
write behind it — so a fingerprint compiled by any server in the fleet
is a cache hit for every other one.

Protocol (deliberately dumb, stdlib-only, trusted-network):

* ``GET    /cache/<kind>/<key>``  → 200 + raw payload bytes, or 404
* ``HEAD   /cache/<kind>/<key>``  → 200 or 404
* ``PUT    /cache/<kind>/<key>``  → 204 (body = raw payload bytes)
* ``DELETE /cache/<kind>/<key>``  → 204 or 404
* ``POST   /batch/<kind>``        → JSON ``{"keys": [...]}`` in,
  JSON ``{"entries": {key: base64}}`` out — the one-round-trip batched
  memo fetch used by ``get_memos_many``
* ``GET    /keys/<kind>``         → JSON ``{"keys": [...]}``
* ``GET    /info``                → JSON store info
* ``POST   /gc``                  → JSON GC report (query params
  ``max_bytes``/``max_age``/``dry_run``)
* ``GET    /healthz``             → 200 ``ok``

Payloads are opaque bytes end to end — the server never unpickles
anything it is handed, and the schema/corruption validation happens in
the backing :class:`LocalStore` exactly as it does for a local tier.

:class:`HTTPStore` is the blocking client.  Connections are per-thread
(``http.client`` is not thread-safe) with a short default timeout;
transport failures raise :class:`~repro.service.stores.base.
StoreUnavailable`, which the layered tier converts into
count-and-degrade instead of a request failure.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ...obs import distributed
from ...obs.trace import annotate, span
from .base import (
    KINDS,
    CacheStore,
    GCReport,
    StoreUnavailable,
    check_kind,
)

#: Maximum accepted request body (a compile result is well under this).
MAX_BODY_BYTES = 256 * 1024 * 1024

_KEY_RE = re.compile(r"^[0-9a-fA-F]{4,128}$")
_CACHE_PATH_RE = re.compile(r"^/cache/(results|memos)/([0-9a-fA-F]{4,128})$")


def _valid_key(key: str) -> bool:
    return bool(_KEY_RE.match(key))


class _StoreHandler(BaseHTTPRequestHandler):
    """One request; the backing store hangs off the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-store/1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def store(self) -> CacheStore:
        return self.server.store

    def parse_request(self):
        self._t0 = time.perf_counter()
        return super().parse_request()

    def _send(self, code: int, body: bytes = b"", content_type: str = "application/octet-stream"):
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # Distributed tracing: echo the caller's context back and report
        # server-side handling time so the caller can place a store-server
        # span inside its own transport span.
        trace_header = self.headers.get(distributed.HEADER)
        handle_seconds = None
        if trace_header:
            self.send_header(distributed.HEADER, trace_header)
            t0 = getattr(self, "_t0", None)
            if t0 is not None:
                handle_seconds = time.perf_counter() - t0
                self.send_header(
                    distributed.SERVER_MS_HEADER, f"{handle_seconds * 1e3:.3f}"
                )
        self.end_headers()
        if self.command != "HEAD" and body:
            self.wfile.write(body)
        if trace_header:
            self._log_trace(trace_header, code, handle_seconds)

    def _log_trace(
        self, trace_header: str, code: int, handle_seconds: Optional[float]
    ) -> None:
        """Append this traced request to the server's event log."""
        events = getattr(self.server, "events", None)
        if events is None:
            return
        ctx = distributed.TraceContext.from_header(trace_header)
        if ctx is None:
            return
        verb = self.command.lower()
        events.emit(
            f"store.{verb}", trace=ctx, path=self.path, status=code
        )
        if ctx.sampled and handle_seconds is not None:
            events.emit_trace(
                {
                    "schema": distributed.WIRE_SCHEMA,
                    "service": "store",
                    "trace_id": ctx.trace_id,
                    "parent_span_id": ctx.span_id,
                    "wall_t0": time.time() - handle_seconds,
                    "spans": [
                        {
                            "id": 1,
                            "parent": None,
                            "name": f"store.server.{verb}",
                            "start": 0.0,
                            "dur": handle_seconds,
                            "tid": 0,
                            "attrs": {"path": self.path, "status": code},
                        }
                    ],
                    "dropped": 0,
                    "truncated": 0,
                }
            )

    def _send_json(self, code: int, obj) -> None:
        self._send(code, json.dumps(obj).encode(), "application/json")

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "body too large"})
            return None
        return self.rfile.read(length)

    def _cache_target(self) -> Optional[Tuple[str, str]]:
        m = _CACHE_PATH_RE.match(urlparse(self.path).path)
        if not m:
            self._send_json(404, {"error": "bad cache path"})
            return None
        return m.group(1), m.group(2)

    # -- verbs --------------------------------------------------------------

    def do_GET(self):
        path = urlparse(self.path).path
        if path == "/healthz":
            return self._send(200, b"ok", "text/plain")
        if path == "/info":
            return self._send_json(200, self.store.info())
        if path.startswith("/keys/"):
            kind = path[len("/keys/"):]
            if kind not in KINDS:
                return self._send_json(404, {"error": f"unknown kind {kind!r}"})
            return self._send_json(200, {"keys": self.store.keys(kind)})
        target = self._cache_target()
        if target is None:
            return
        blob = self.store.get(*target)
        if blob is None:
            return self._send_json(404, {"error": "miss"})
        self._send(200, blob)

    def do_HEAD(self):
        target = self._cache_target()
        if target is None:
            return
        if self.store.contains(*target):
            self._send(200)
        else:
            self._send(404)

    def do_PUT(self):
        target = self._cache_target()
        if target is None:
            return
        body = self._read_body()
        if body is None:
            return
        if not self.store.put(*target, body):
            return self._send_json(507, {"error": "store write failed"})
        self._send(204)

    def do_DELETE(self):
        target = self._cache_target()
        if target is None:
            return
        self._send(204 if self.store.delete(*target) else 404)

    def do_POST(self):
        url = urlparse(self.path)
        if url.path.startswith("/batch/"):
            kind = url.path[len("/batch/"):]
            if kind not in KINDS:
                return self._send_json(404, {"error": f"unknown kind {kind!r}"})
            body = self._read_body()
            if body is None:
                return
            try:
                keys = json.loads(body or b"{}").get("keys", [])
            except ValueError:
                return self._send_json(400, {"error": "bad JSON body"})
            keys = [k for k in keys if isinstance(k, str) and _valid_key(k)]
            found = self.store.get_many(kind, keys)
            return self._send_json(
                200,
                {
                    "entries": {
                        k: base64.b64encode(v).decode("ascii")
                        for k, v in found.items()
                    }
                },
            )
        if url.path == "/gc":
            params = parse_qs(url.query)

            def _num(name, conv):
                vals = params.get(name)
                return conv(vals[0]) if vals else None

            try:
                report = self.store.gc(
                    max_bytes=_num("max_bytes", lambda v: int(float(v))),
                    max_age=_num("max_age", float),
                    dry_run=_num("dry_run", lambda v: v in ("1", "true")) or False,
                )
            except ValueError as exc:
                return self._send_json(400, {"error": str(exc)})
            return self._send_json(200, report.as_dict())
        self._send_json(404, {"error": "unknown endpoint"})


class StoreServer:
    """A cache store served over HTTP, on its own daemon thread.

    ``python -m repro cache serve --dir D --port P`` runs one as a
    process; tests and benchmarks embed it::

        with StoreServer(LocalStore(dir)) as srv:
            remote = HTTPStore(srv.url)
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        events_path: Optional[str] = None,
    ):
        if not isinstance(store, CacheStore):
            # A directory path: serve a LocalStore over it.
            from .local import LocalStore

            store = LocalStore(os.fspath(store), tier="remote")
        from ...obs.events import EventLog

        self.store = store
        self.events = EventLog(path=events_path)
        self._httpd = ThreadingHTTPServer((host, port), _StoreHandler)
        self._httpd.daemon_threads = True
        self._httpd.store = store
        self._httpd.events = self.events
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "StoreServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-store-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI path)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.events.close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class HTTPStore(CacheStore):
    """Blocking client half of the shared remote tier.

    One ``http.client.HTTPConnection`` per thread (stdlib connections
    are not thread-safe); every transport failure closes the connection
    and surfaces as :class:`StoreUnavailable` so the layered tier can
    back off.  Server-reported misses (404) are plain ``None`` misses.
    """

    tier = "remote"

    def __init__(self, url: str, timeout: float = 5.0, tier: Optional[str] = None):
        super().__init__(tier)
        parsed = urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"remote store URL must be http://host:port, got {url!r}")
        self.url = url.rstrip("/")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._local = threading.local()

    # -- transport ----------------------------------------------------------

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
        return conn

    def _drop_conn(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
            self._local.conn = None

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        # One silent retry through a fresh connection: a keep-alive
        # connection the server idled out looks like a send/recv error.
        headers = {}
        ctx = distributed.current_context()
        if ctx is not None:
            headers[distributed.HEADER] = ctx.to_header()
        self._local.server_ms = None
        for attempt in (0, 1):
            conn = self._conn()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                ms = resp.getheader(distributed.SERVER_MS_HEADER)
                if ms is not None:
                    try:
                        self._local.server_ms = float(ms)
                    except ValueError:
                        pass
                return resp.status, payload
            except (OSError, http.client.HTTPException) as exc:
                self._drop_conn()
                if attempt:
                    raise StoreUnavailable(
                        f"{method} {self.url}{path}: {type(exc).__name__}: {exc}"
                    ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    def _annotate(self, **attrs) -> None:
        """Attach transport outcome (+ server-side ms, if echoed) to the
        innermost open traced span (no-op when not tracing)."""
        server_ms = getattr(self._local, "server_ms", None)
        if server_ms is not None:
            attrs["server_ms"] = server_ms
        annotate(**attrs)

    def _call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        status, payload = self._request(method, path, body)
        if status >= 500:
            raise StoreUnavailable(f"{method} {path} -> HTTP {status}")
        return status, payload

    # -- CacheStore ----------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        check_kind(kind)
        self.stats.inc("gets")
        t0 = time.perf_counter()
        with span("store.get", tier=self.tier, kind=kind, key=key[:12]):
            try:
                status, payload = self._call("GET", f"/cache/{kind}/{key}")
            except StoreUnavailable:
                self.stats.inc("errors")
                raise
            finally:
                self.stats.observe_get(time.perf_counter() - t0)
            self._annotate(hit=status == 200)
        if status == 200:
            self.stats.inc("hits")
            return payload
        self.stats.inc("misses")
        return None

    def get_many(self, kind: str, keys: Iterable[str]) -> Dict[str, bytes]:
        check_kind(kind)
        keys = list(keys)
        if not keys:
            return {}
        self.stats.inc("batched_gets")
        self.stats.inc("gets", len(keys))
        body = json.dumps({"keys": keys}).encode()
        with span("store.get_many", tier=self.tier, kind=kind, keys=len(keys)):
            try:
                status, payload = self._call("POST", f"/batch/{kind}", body)
            except StoreUnavailable:
                self.stats.inc("errors")
                raise
            if status != 200:
                self.stats.inc("misses", len(keys))
                self._annotate(hits=0)
                return {}
            entries = json.loads(payload).get("entries", {})
            out = {k: base64.b64decode(v) for k, v in entries.items()}
            self._annotate(hits=len(out))
        self.stats.inc("hits", len(out))
        self.stats.inc("misses", len(keys) - len(out))
        return out

    def put(self, kind: str, key: str, blob: bytes) -> bool:
        check_kind(kind)
        self.stats.inc("puts")
        t0 = time.perf_counter()
        with span(
            "store.put", tier=self.tier, kind=kind, key=key[:12], bytes=len(blob)
        ):
            try:
                status, _ = self._call("PUT", f"/cache/{kind}/{key}", blob)
            except StoreUnavailable:
                self.stats.inc("errors")
                raise
            finally:
                self.stats.observe_put(time.perf_counter() - t0)
            self._annotate(ok=status == 204)
        if status == 204:
            return True
        self.stats.inc("errors")
        return False

    def delete(self, kind: str, key: str) -> bool:
        check_kind(kind)
        self.stats.inc("deletes")
        status, _ = self._call("DELETE", f"/cache/{kind}/{key}")
        return status == 204

    def contains(self, kind: str, key: str) -> bool:
        check_kind(kind)
        status, _ = self._call("HEAD", f"/cache/{kind}/{key}")
        return status == 200

    def keys(self, kind: str) -> List[str]:
        check_kind(kind)
        status, payload = self._call("GET", f"/keys/{kind}")
        if status != 200:
            return []
        return list(json.loads(payload).get("keys", []))

    def info(self) -> Dict[str, object]:
        try:
            status, payload = self._call("GET", "/info")
        except StoreUnavailable as exc:
            return {"tier": self.tier, "url": self.url, "error": str(exc)}
        info = json.loads(payload) if status == 200 else {}
        info["tier"] = self.tier
        info["url"] = self.url
        info["client_stats"] = self.stats.as_dict()
        return info

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        params = []
        if max_bytes is not None:
            params.append(f"max_bytes={max_bytes}")
        if max_age is not None:
            params.append(f"max_age={max_age}")
        if dry_run:
            params.append("dry_run=1")
        query = ("?" + "&".join(params)) if params else ""
        status, payload = self._call("POST", f"/gc{query}")
        report = GCReport(dry_run=dry_run)
        if status == 200:
            d = json.loads(payload)
            report.scanned = d.get("scanned", 0)
            report.scanned_bytes = d.get("scanned_bytes", 0)
            report.expired = d.get("expired", 0)
            report.evicted = d.get("evicted", 0)
            report.removed_bytes = d.get("removed_bytes", 0)
            report.remaining_entries = d.get("remaining_entries", 0)
            report.remaining_bytes = d.get("remaining_bytes", 0)
            report.errors = d.get("errors", 0)
        return report

    def ping(self) -> bool:
        """True when the server answers ``/healthz``."""
        try:
            status, _ = self._call("GET", "/healthz")
        except StoreUnavailable:
            return False
        return status == 200

    def close(self) -> None:
        self._drop_conn()

    @property
    def spec(self) -> Optional[str]:
        return self.url

    def __repr__(self) -> str:  # pragma: no cover
        return f"HTTPStore({self.url!r})"
