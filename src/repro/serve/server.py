"""The compile server: a long-lived asyncio daemon over the batch driver.

Every piece the daemon composes already exists in the library —
content-addressed fingerprints, the thread-safe
:class:`~repro.service.CompileCache`, the deduplicating
:func:`~repro.service.compile_batch` driver, presburger memo tables and
the :class:`~repro.obs.MetricsRegistry` — what the server adds is *state
that stays warm*: one process whose LRU, memo tables and metrics survive
across requests, instead of every invocation paying process startup and
re-warming from disk.

Architecture (single event loop + bounded worker pool for misses):

* **Transport** — newline-delimited JSON-RPC (:mod:`repro.serve.protocol`)
  over a unix socket and/or TCP.  One connection may pipeline requests;
  each request is handled by its own task and replies carry the request
  id, so they may complete out of order.
* **Single-flight dedup** — identical compile requests (same normalized
  workload/size/target/tiles/startup) that arrive while one is already
  compiling all await the *same* task (:mod:`repro.serve.singleflight`);
  only the leader does the work.  ``serve.dedup_hits`` counts the
  followers.
* **Memory-tier hits on the loop** — a built-in ``compile`` whose
  fingerprint the cache's memory tier holds is a lookup that copies no
  schedule tree (the reply never reads one), cheaper than the hop to a
  worker thread and than a single-flight round trip, so the request is
  answered on the event loop before it reaches the single-flight: one
  ``CompileCache.get_memory`` read, no batch.  If the entry went in
  between (a worker's ``put`` evicted it), the read answers ``None`` and
  the request takes the flight to the pool: the loop never compiles and
  never reads the disk store.
* **Worker pool** — everything else (memory misses, disk-tier reads,
  compiles, ``autotune``, injected work fns) runs on a bounded
  ``ThreadPoolExecutor`` and routes through ``compile_batch(mode="serial",
  cache=...)``, so every request shares the in-process LRU, the disk
  store and the process-wide memo tables.  The memo tables stay in this
  process: the daemon never loads or spills a memo snapshot, since what a
  snapshot would warm is already resident after the first compile of a
  program.
* **Limits** — per-client (per-connection) concurrency caps answer
  ``overloaded`` instead of queueing unboundedly; per-request timeouts
  answer ``timeout`` (the compile keeps running server-side and lands in
  the cache — a timeout waiter's work is not wasted).
* **Lifecycle** — SIGTERM/SIGINT (or a ``shutdown`` request) stop the
  listeners, let in-flight requests finish (bounded by
  ``drain_timeout``), then close connections and the pool.
* **Stats** — the ``stats`` method returns a live ``repro-metrics/1``
  snapshot straight from the registry: request/dedup/cache-hit counters,
  latency histograms, and every span/counter the instrumented compiles
  produced.

The registry and all bookkeeping are touched only on the event-loop
thread; the work fn hands its per-request
:class:`~repro.obs.CompileReport` back for absorption, so no metric
needs a lock.  Collectors are thread-local, so a hit run on the loop
records its own counters (the first hit's ``service.cache.decode``) and
nothing of a worker's.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Dict, Optional, Tuple

from .. import obs
from ..obs import MetricsRegistry, distributed
from ..obs.events import EventLog
from ..options import CompileOptions
from ..scheduler import HEURISTICS
from ..scheduler.autotune import autotune_tile_sizes
from ..service import fingerprint
from ..service.cache import default_cache_dir, resolve_cache
from ..service.driver import CompileRequest, compile_batch
from ..workloads import build_workload, default_tile_sizes, is_workload
from . import protocol
from .singleflight import SingleFlight

#: Histogram bucket bounds for request/compile latencies, in milliseconds.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


def default_socket_path() -> str:
    """Default unix-socket path, next to the default compile cache."""
    return os.path.join(default_cache_dir(), "serve.sock")


class RequestError(Exception):
    """A request failed with a structured protocol error."""

    def __init__(self, code: str, message: str):
        assert code in protocol.ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class ServeConfig:
    """Validated daemon configuration.

    At least one endpoint is always live: with neither ``socket_path``
    nor ``host`` given, the server listens on :func:`default_socket_path`.
    ``cache`` accepts anything :func:`repro.service.cache.resolve_cache`
    does (an instance, ``"default"``, a named cache, a directory) or
    ``None`` to serve without a result cache.
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    workers: int = 2
    client_limit: int = 8
    request_timeout: float = 300.0
    drain_timeout: float = 10.0
    cache: object = "default"
    #: JSONL event-log path (``None`` keeps no event log).
    events_path: Optional[str] = None

    def __post_init__(self):
        if self.socket_path is None and self.host is None:
            self.socket_path = default_socket_path()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.client_limit < 1:
            raise ValueError(
                f"client_limit must be >= 1, got {self.client_limit!r}"
            )
        if self.request_timeout <= 0 or self.drain_timeout <= 0:
            raise ValueError("timeouts must be positive")


def _reply(norm: dict, key: str, result, from_cache: bool, error=None) -> dict:
    """A compile's reply fields, for a memory-tier hit on the loop and for
    the pool's batch alike."""
    reply = {
        "target": norm["target"],
        "startup": norm["startup"],
        "fingerprint": key,
        "from_cache": from_cache,
        "error": error,
    }
    if error is None:
        reply["tile_sizes"] = (
            list(result.tile_sizes) if result.tile_sizes is not None else None
        )
        reply["fusion"] = result.fusion_summary()
    return reply


class CompileServer:
    """The daemon.  ``work_fns`` maps a work verb to a replacement for its
    built-in work fn (tests inject fakes): a synchronous callable run on
    the worker pool as ``fn(norm, report)`` — the normalized params dict
    and the already-active tracing collector to reuse, or ``None`` —
    returning ``(summary_dict, report|None)``.  An injected ``compile``
    always runs on the pool: only the built-in one answers hits on the
    loop."""

    def __init__(self, config: ServeConfig, work_fns=None):
        self.config = config
        if config.cache is None:
            self.cache = None
        else:
            self.cache = resolve_cache(config.cache)
        self.registry = MetricsRegistry()
        self.events = EventLog(path=config.events_path)
        bodies = {
            "compile": partial(
                self._compile, options=CompileOptions(mode="serial", cache=self.cache)
            ),
            "autotune": self._autotune,
        }
        self._work_fns = {
            verb: partial(self._work, body) for verb, body in bodies.items()
        }
        self._work_fns.update(work_fns or {})
        # Only the built-in compile answers memory-tier hits on the loop.
        self._hits_on_loop = self.cache is not None and "compile" not in (
            work_fns or {}
        )
        self._flight = SingleFlight()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._servers = []
        self._writers = set()
        self._tasks = set()
        self._conn_tasks = set()
        self._connections = 0
        self._active_compiles = 0
        self._stopping = asyncio.Event()
        self._started_at = time.monotonic()
        self.tcp_address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the configured endpoints and start accepting requests."""
        self._started_at = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve-worker",
        )
        if self.config.socket_path:
            path = self.config.socket_path
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            try:
                os.unlink(path)  # stale socket from a dead server
            except OSError:
                pass
            self._servers.append(
                await asyncio.start_unix_server(
                    self._serve_connection, path=path,
                    limit=protocol.MAX_LINE_BYTES,
                )
            )
        if self.config.host is not None:
            srv = await asyncio.start_server(
                self._serve_connection,
                host=self.config.host,
                port=self.config.port,
                limit=protocol.MAX_LINE_BYTES,
            )
            self._servers.append(srv)
            self.tcp_address = srv.sockets[0].getsockname()[:2]
        self.registry.meta.update(
            {
                "service": "repro-serve",
                "protocol": protocol.PROTOCOL,
                "pid": os.getpid(),
                "socket": self.config.socket_path,
                "tcp": list(self.tcp_address) if self.tcp_address else None,
                "workers": self.config.workers,
            }
        )
        self.events.emit(
            "server.started", pid=os.getpid(), socket=self.config.socket_path
        )

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent, loop-thread only)."""
        self._stopping.set()

    async def run(self) -> None:
        """``start`` + serve until shutdown/SIGTERM/SIGINT + drain."""
        if not self._servers:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        try:
            await self._stopping.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, tear down."""
        for srv in self._servers:
            srv.close()
        for srv in self._servers:
            await srv.wait_closed()
        self._servers = []
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            _, still = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for t in still:
                t.cancel()
        for writer in list(self._writers):
            writer.close()
        # Let connection loops see EOF and exit on their own before the
        # loop shuts down, so teardown never cancels them mid-readline.
        loops = [t for t in self._conn_tasks if not t.done()]
        if loops:
            _, still = await asyncio.wait(loops, timeout=2.0)
            for t in still:
                t.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        self.events.emit("server.stopped", pid=os.getpid())
        self.events.close()

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        self._connections += 1
        self._conn_tasks.add(asyncio.current_task())
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        client = {"inflight": 0}
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Oversized line or reset: answer if possible, drop.
                    await self._write(
                        writer,
                        write_lock,
                        protocol.error_response(
                            None, "bad-request", "oversized or broken line"
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = loop.create_task(
                    self._handle_line(line, writer, write_lock, client)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            self._connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer, write_lock, message: dict) -> None:
        try:
            async with write_lock:
                writer.write(protocol.encode(message))
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass  # client went away; nothing to tell it

    async def _handle_line(self, line, writer, write_lock, client) -> None:
        t0 = perf_counter()
        rid = None
        method = None
        try:
            msg = protocol.decode(line)
            rid = msg.get("id")
            if not isinstance(rid, (int, str)) or isinstance(rid, bool):
                rid = None
            errors = protocol.validate_request(msg)
            if errors:
                raise RequestError("bad-request", "; ".join(errors))
            method = msg["method"]
            response = protocol.ok_response(
                rid, await self._dispatch(method, msg["params"], client)
            )
        except protocol.ProtocolError as exc:
            self.registry.inc("serve.bad_requests")
            response = protocol.error_response(rid, "bad-request", str(exc))
        except RequestError as exc:
            if exc.code == "bad-request":
                self.registry.inc("serve.bad_requests")
            response = protocol.error_response(rid, exc.code, exc.message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.registry.inc("serve.internal_errors")
            response = protocol.error_response(
                rid, "internal", f"{type(exc).__name__}: {exc}"
            )
        self.registry.observe(
            "serve.request_ms", (perf_counter() - t0) * 1e3, LATENCY_BUCKETS_MS
        )
        await self._write(writer, write_lock, response)

    async def _dispatch(self, method: str, params: dict, client) -> dict:
        self.registry.inc("serve.requests")
        if method not in protocol.METHODS:
            # One counter for every unknown name: a client must not be able
            # to grow the registry by inventing methods.
            self.registry.inc("serve.unknown_methods")
            raise RequestError("unknown-method", f"unknown method {method!r}")
        self.registry.inc(f"serve.requests.{method}")
        if method == "health":
            return self._health()
        if method == "stats":
            return self._stats()
        if method == "shutdown":
            return self._shutdown()
        # A work verb: real work, subject to draining and limits.  A
        # client that traces the request sends its trace id (validated).
        trace_id = params.get("trace")
        self.events.emit(
            "request.received",
            trace_id=trace_id,
            method=method,
            workload=params.get("workload"),
        )
        if self._stopping.is_set():
            self.registry.inc("serve.rejected_draining")
            raise RequestError("draining", "server is shutting down")
        if client["inflight"] >= self.config.client_limit:
            self.registry.inc("serve.rejected_overloaded")
            self.events.emit(
                "request.overloaded", level="warn", trace_id=trace_id, method=method
            )
            raise RequestError(
                "overloaded",
                f"client has {client['inflight']} requests in flight "
                f"(limit {self.config.client_limit})",
            )
        client["inflight"] += 1
        try:
            return await self._rpc_work(method, params, trace_id)
        finally:
            client["inflight"] -= 1

    # -- methods -----------------------------------------------------------

    def _normalize(self, method: str, params: dict) -> Dict[str, object]:
        """The verb's params with every default filled in, minus the trace
        id — what the work fn sees and the flight key is made of."""
        norm = protocol.fill_defaults(method, params)
        norm.pop("trace", None)
        if not is_workload(norm["workload"]):
            raise RequestError(
                "bad-request", f"unknown workload {norm['workload']!r}"
            )
        if norm["startup"] not in HEURISTICS:
            raise RequestError(
                "bad-request",
                f"unknown startup heuristic {norm['startup']!r}; "
                f"choose from {HEURISTICS}",
            )
        if method == "compile" and norm["tile_sizes"] is None:
            norm["tile_sizes"] = default_tile_sizes(norm["workload"])
        return norm

    async def _rpc_work(self, method: str, params: dict, trace_id) -> dict:
        """Memory-tier hit or single-flight dedup, + trace/lifecycle
        bookkeeping for one verb.

        A hit (:meth:`_answer_hit`) is answered here, synchronously, and
        never opens a flight: it is the leader of nothing and follows
        nothing.  The flight key ignores the trace id on purpose:
        identical compiles dedup whether or not they are traced, so only
        the leader's request gets its span tree back (followers see
        ``deduped: true`` and can re-request untraced work).
        """
        norm = self._normalize(method, params)
        done = self._answer_hit(method, norm, trace_id)
        if done is not None:
            summary, leader = self._record(done), True
        else:
            key = method + ":" + json.dumps(norm, sort_keys=True)
            task, leader = self._flight.task(
                key, lambda: self._lead(method, norm, trace_id)
            )
            if not leader:
                self.registry.inc("serve.dedup_hits")
                self.events.emit(
                    "request.deduped",
                    trace_id=trace_id,
                    method=method,
                    workload=norm.get("workload"),
                )
            summary = await self._await_flight(task, method, trace_id)
        if summary.get("error"):
            self.events.emit(
                "request.failed",
                level="error",
                trace_id=trace_id,
                method=method,
                error=summary["error"],
            )
            raise RequestError(f"{method}-error", summary["error"])
        result = dict(summary)
        trace_payload = result.pop("_trace", None)
        result["deduped"] = not leader
        if leader and trace_payload is not None:
            result["trace"] = trace_payload
        self.events.emit(
            "request.completed",
            trace_id=trace_id,
            method=method,
            workload=norm.get("workload"),
            ms=result.get("compile_ms"),
            from_cache=bool(result.get("from_cache")),
            deduped=not leader,
        )
        return result

    async def _await_flight(self, task, method=None, trace_id=None) -> dict:
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self.registry.inc("serve.timeouts")
            self.events.emit(
                "request.timeout", level="warn", trace_id=trace_id, method=method
            )
            raise RequestError(
                "timeout",
                f"request did not finish within {self.config.request_timeout}s "
                "(the compile continues server-side and will hit the cache)",
            )

    async def _lead(self, method: str, norm: dict, trace_id=None) -> dict:
        """The single-flight leader: run the verb's work fn on the worker
        pool and :meth:`_record` what it returns.  A memory-tier hit never
        gets here (:meth:`_rpc_work` answers it first)."""
        self._active_compiles += 1
        try:
            done = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                self._call_traced,
                self._work_fns[method],
                norm,
                trace_id,
            )
        finally:
            self._active_compiles -= 1
        return self._record(done)

    def _record(self, done) -> dict:
        """Fold a ``_call_traced`` triple's observations into the live
        registry; returns the summary, with its wire spans as ``_trace``."""
        summary, report, wire = done
        if report is not None:
            self.registry.absorb_report(report)
        if summary.get("error"):
            self.registry.inc("serve.compile_errors")
        elif summary.get("from_cache"):
            self.registry.inc("serve.cache_hits")
        else:
            self.registry.inc("serve.compiles")
        if "compile_ms" in summary:
            self.registry.observe(
                "serve.compile_ms", summary["compile_ms"], LATENCY_BUCKETS_MS
            )
        if wire is not None:
            summary = dict(summary, _trace=wire)
        return summary

    def _answer_hit(self, method: str, norm: dict, trace_id):
        """``_call_traced``'s triple for a built-in compile whose
        fingerprint the memory tier holds, run on the loop thread before
        any single-flight: such a hit is a lookup that copies no tree
        (the cache hands out a copy-on-read view and the reply never
        reads ``.tree``), cheaper than the hop to a worker.

        The check builds the workload (``build_workload`` keeps recent
        programs) and fingerprints it here, once.  The hit reads
        ``CompileCache.get_memory`` under the same ``_work`` collector as
        the pool, so its decode counts reach the registry.  ``None`` sends
        the request to the single-flight and the pool: any other verb, an
        injected compile, a key the memory tier lacks, and one it lost
        before the read (a worker's ``put`` evicted it).  So the loop
        never compiles and never reads the store.

        What never changes between two hits of one key is not redone: the
        key is a lookup in ``fingerprint_request``'s memo (the program's
        digest is memoized on the program), and the reply's ``fusion`` is
        the summary the cache's own instance derived on the first hit and
        shares with every view it hands out."""
        if method != "compile" or not self._hits_on_loop:
            return None
        key = fingerprint.fingerprint_request(
            build_workload(norm["workload"], norm["size"]),
            norm["target"],
            norm["tile_sizes"],
            norm["startup"],
        )
        if not self.cache.in_memory(key):
            return None

        def read(norm, program):
            result = self.cache.get_memory(key)
            return None if result is None else _reply(norm, key, result, True)

        done = self._call_traced(partial(self._work, read), norm, trace_id)
        return None if done[0] is None else done

    def _call_traced(self, fn, norm: dict, trace_id):
        """Run ``fn`` (on a worker thread, or on the loop for a hit) under
        a tracing collector when the client traced the request.

        Returns ``(summary, report, wire_spans|None)``.  Untraced requests
        skip the collector entirely — the null-span fast path.  A traced
        request hands its collector to ``fn`` to reuse instead of opening
        an inner one — two stacked collectors would double the dispatch
        cost of every hot-loop counter, which is exactly the overhead the
        traced budget in ``bench_obs_overhead --serve`` polices."""
        if trace_id is None:
            summary, report = fn(norm, None)
            return summary, report, None
        with obs.collect(distributed.WireRows("daemon"), trace=True) as traced:
            with obs.span(
                "serve.request", trace_id=trace_id, workload=norm.get("workload")
            ):
                summary, report = fn(norm, traced)
        return summary, report, traced.payload()

    def _health(self) -> dict:
        return {
            "status": "draining" if self._stopping.is_set() else "ok",
            "protocol": protocol.PROTOCOL,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started_at,
            "connections": self._connections,
            "inflight_compiles": self._active_compiles,
            "requests_total": self.registry.counters.get("serve.requests", 0),
        }

    def _stats(self) -> dict:
        """A live ``repro-metrics/1`` snapshot of everything observed."""
        self.registry.set_gauge(
            "serve.uptime_seconds", time.monotonic() - self._started_at
        )
        self.registry.set_gauge("serve.connections", self._connections)
        self.registry.set_gauge("serve.inflight_compiles", self._active_compiles)
        self.registry.set_gauge("serve.inflight_keys", len(self._flight))
        for name, value in self.events.stats().items():
            self.registry.set_gauge(f"serve.events.{name}", value)
        if self.cache is not None:
            # Policy and store counters become ``serve.cache.<name>`` and
            # ``serve.cache.tier.local.<name>`` gauges; the store's latency
            # histograms land in the registry under the same prefix.
            for name, value in self.cache.counters().items():
                self.registry.set_gauge(f"serve.cache.{name}", value)
            if self.cache.store is not None:
                for name, hist in self.cache.store.stats.histograms().items():
                    self.registry.histograms[f"serve.cache.tier.local.{name}"] = hist
        return self.registry.snapshot()

    def _shutdown(self) -> dict:
        self.request_shutdown()
        return {"stopping": True, "inflight_compiles": self._active_compiles}

    # -- the real work (worker threads; the loop for a memory-tier hit) -----

    def _work(self, body, norm: dict, report):
        """The built-in work fn of every verb: open a collector (or reuse
        ``report``, see ``_call_traced``), build the workload, run the
        verb's ``body(norm, program)``, time it.  A body that raises
        answers ``<verb>-error`` rather than taking the request down; one
        that answers ``None`` (a memory-tier read that lost its key) is
        passed back as ``(None, report)``."""
        t0 = perf_counter()
        with obs.collect() if report is None else nullcontext(report) as report:
            program = build_workload(norm["workload"], norm["size"])
            try:
                summary = body(norm, program)
            except Exception as exc:
                summary = {"error": f"{type(exc).__name__}: {exc}"}
        if summary is None:
            return None, report
        summary = {
            "workload": norm["workload"],
            "size": norm["size"],
            "from_cache": False,
            "error": None,
            **summary,
            "compile_ms": (perf_counter() - t0) * 1e3,
        }
        return summary, report

    def _compile(self, norm: dict, program, options) -> dict:
        """One compile through the batch driver and the shared thread-safe
        cache its ``options`` hold: a warm fingerprint never compiles, and
        a fresh result is stored for every later request (and process)."""
        request = CompileRequest(
            program,
            target=norm["target"],
            tile_sizes=norm["tile_sizes"],
            startup=norm["startup"],
        )
        (outcome,) = compile_batch([request], options=options)
        return _reply(
            norm, outcome.fingerprint, outcome.result, outcome.from_cache, outcome.error
        )

    def _autotune(self, norm: dict, program) -> dict:
        """Tile-size search against the machine model."""
        tuned = autotune_tile_sizes(
            program,
            threads=norm["threads"],
            candidates=tuple(norm["candidates"]),
            dims=norm["dims"],
            options=CompileOptions(
                target=norm["target"],
                startup=norm["startup"],
                mode="serial",
                cache=self.cache,
            ),
        )
        return {
            "target": norm["target"],
            "best_tile_sizes": list(tuned.best_sizes),
            "best_time_ms": tuned.best_time * 1e3,
            "evaluations": len(tuned.evaluations),
            "failures": len(tuned.failures),
            "tuning_seconds": tuned.tuning_seconds,
        }


class ServerThread:
    """A :class:`CompileServer` on a background thread with its own loop.

    The harness tests, ``bench_serve.py`` and interactive sessions all
    need a server *next to* blocking client code; this wraps the
    start/ready/stop handshake::

        with ServerThread(ServeConfig(socket_path=p, cache=cache)) as st:
            client = ServeClient(socket_path=p)
            ...
    """

    def __init__(self, config: ServeConfig, **server_kwargs):
        self.server = CompileServer(config, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 15.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("compile server did not start in time")
        if self._error is not None:
            raise RuntimeError(
                f"compile server failed to start: {self._error!r}"
            ) from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/run failures
            if self._error is None:
                self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.run()

    def stop(self, timeout: float = 15.0) -> None:
        if self._thread is None:
            return
        if self._thread.is_alive() and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        return self.server.tcp_address

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
