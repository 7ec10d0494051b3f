"""The compile server: a long-lived asyncio daemon over the batch driver.

Every piece the daemon composes already exists in the library —
content-addressed fingerprints, the (now thread-safe) two-tier
:class:`~repro.service.CompileCache`, the deduplicating
:func:`~repro.service.compile_batch` driver, presburger memo tables and
the :class:`~repro.obs.MetricsRegistry` — what the server adds is *state
that stays warm*: one process whose LRU, memo tables and metrics survive
across requests, instead of every invocation paying process startup and
re-warming from disk.

Architecture (single event loop + bounded worker pool):

* **Transport** — newline-delimited JSON-RPC (:mod:`repro.serve.protocol`)
  over a unix socket and/or TCP.  One connection may pipeline requests;
  each request is handled by its own task and replies carry the request
  id, so they may complete out of order.
* **Single-flight dedup** — identical compile requests (same normalized
  workload/size/target/tiles/startup) that arrive while one is already
  compiling all await the *same* task (:mod:`repro.serve.singleflight`);
  only the leader touches the worker pool.  ``serve.dedup_hits`` counts
  the followers.
* **Worker pool** — actual compiles run on a bounded
  ``ThreadPoolExecutor`` and route through ``compile_batch(mode="serial",
  cache=...)``, so every request shares the in-process LRU, the disk
  store and the process-wide memo tables.
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
thread; the worker threads hand their per-compile
:class:`~repro.obs.CompileReport` back for absorption, so no metric
needs a lock.
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
from ..obs.events import EventLog, SampleRing
from . import protocol
from .singleflight import SingleFlight

#: Histogram bucket bounds for request/compile latencies, in milliseconds.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


def default_socket_path() -> str:
    """Default unix-socket path, next to the default compile cache."""
    from ..service.cache import default_cache_dir

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
    #: Head-sampling rate applied to requests that *ask* for tracing; a
    #: sampled-out request pays only the null-span fast path.
    trace_sample: float = 1.0
    #: JSONL event-log path (``None`` keeps the log memory-only).
    events_path: Optional[str] = None
    #: Seconds between telemetry ring-buffer samples (the ``watch`` verb).
    sample_interval: float = 1.0
    #: Telemetry ring capacity (samples retained for ``watch``).
    ring_size: int = 300

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
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {self.trace_sample!r}"
            )
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval!r}"
            )
        if self.ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {self.ring_size!r}")


class CompileServer:
    """The daemon.  ``work_fns`` maps a work verb to a replacement for its
    built-in work fn (tests inject fakes): a synchronous callable run on
    the worker pool as ``fn(norm, report)`` — the normalized params dict
    and the already-active tracing collector to reuse, or ``None`` —
    returning ``(summary_dict, report|None)``."""

    def __init__(self, config: ServeConfig, work_fns=None):
        self.config = config
        if config.cache is None:
            self.cache = None
        else:
            from ..service.cache import resolve_cache

            self.cache = resolve_cache(config.cache)
        self.registry = MetricsRegistry()
        self.events = EventLog(path=config.events_path)
        self.ring = SampleRing(config.ring_size)
        self._prev_sample: Optional[Dict[str, float]] = None
        self._sampler: Optional[asyncio.Task] = None
        bodies = {
            "compile": self._compile,
            "autotune": self._autotune,
            "partition": self._partition,
        }
        self._work_fns = {
            verb: partial(self._work, body) for verb, body in bodies.items()
        }
        self._work_fns.update(work_fns or {})
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
            "server.started",
            pid=os.getpid(),
            socket=self.config.socket_path,
            trace_sample=self.config.trace_sample,
        )
        self._sampler = asyncio.get_running_loop().create_task(
            self._sample_loop()
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
        if self.cache is not None:
            # Drain the write-behind queue so results compiled here are
            # published to the shared remote tier before we disappear.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.cache.flush(self.config.drain_timeout)
            )
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        if self._sampler is not None:
            self._sampler.cancel()
            self._sampler = None
        self.events.emit("server.stopped", pid=os.getpid())
        self.events.close()

    # -- telemetry ring ------------------------------------------------------

    async def _sample_loop(self) -> None:
        """Periodically fold a derived telemetry sample into the ring.

        Runs on the event loop (the registry's home thread) so sampling
        needs no locks; the ring itself is thread-safe for ``watch``.
        """
        while not self._stopping.is_set():
            try:
                await asyncio.wait_for(
                    self._stopping.wait(), self.config.sample_interval
                )
                break
            except asyncio.TimeoutError:
                pass
            except asyncio.CancelledError:
                break
            try:
                self.ring.add(self._sample())
            except Exception:
                self.registry.inc("serve.sample_errors")

    def _sample(self) -> Dict[str, object]:
        """One derived telemetry sample (rates computed against the last)."""
        now = time.monotonic()
        c = self.registry.counters
        cur = {
            "t": now,
            "requests": c.get("serve.requests", 0),
            "dedup": c.get("serve.dedup_hits", 0),
            "compiles": c.get("serve.compiles", 0),
            "cache_hits": c.get("serve.cache_hits", 0),
            "errors": c.get("serve.compile_errors", 0),
        }
        prev = self._prev_sample or cur
        dt = max(1e-9, now - prev["t"])
        d_req = cur["requests"] - prev["requests"]
        d_dedup = cur["dedup"] - prev["dedup"]
        d_done = (
            (cur["compiles"] - prev["compiles"])
            + (cur["cache_hits"] - prev["cache_hits"])
            + d_dedup
        )
        self._prev_sample = cur
        compile_ms = self.registry.histograms.get("serve.compile_ms")
        sample: Dict[str, object] = {
            "at": time.time(),
            "uptime_seconds": now - self._started_at,
            "requests_total": cur["requests"],
            "req_per_s": d_req / dt,
            "dedup_rate": (d_dedup / d_done) if d_done else 0.0,
            "active_flights": len(self._flight),
            "inflight_compiles": self._active_compiles,
            "connections": self._connections,
            "compile_errors": cur["errors"],
            "cache_hits": cur["cache_hits"],
            "cache_decodes": c.get("service.cache.decode", 0),
            "compile_p50_ms": compile_ms.quantile(0.5) if compile_ms else 0.0,
            "compile_p99_ms": compile_ms.quantile(0.99) if compile_ms else 0.0,
            "events_dropped": self.events.stats()["dropped"],
        }
        if self.cache is not None:
            tiers: Dict[str, Dict[str, float]] = {}
            for tier, tstats in self.cache.tier_metrics():
                counters = tstats.counters()
                gauges = tstats.gauges()
                gets = counters.get("gets", 0)
                tiers[tier] = {
                    "hit_pct": 100.0 * counters.get("hits", 0) / gets
                    if gets
                    else 0.0,
                    "gets": gets,
                }
                if "inflight_flush" in gauges:
                    sample["flush_queue_depth"] = gauges["inflight_flush"]
                if "remote_down" in gauges:
                    sample["remote_down"] = bool(gauges["remote_down"])
            sample["tiers"] = tiers
        return sample

    def _watch(self, params: dict) -> dict:
        """Telemetry samples newer than ``since`` plus recent events."""
        params = protocol.fill_defaults("watch", params)
        samples, missed = self.ring.since(params["since"])
        if params["limit"] is not None:
            samples = samples[-params["limit"]:]
        return {
            "interval": self.config.sample_interval,
            "samples": samples,
            "missed": missed,
            "recent_events": self.events.recent(10, type="event"),
        }

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
        self.registry.inc(f"serve.requests.{method}")
        if method not in protocol.METHODS:
            raise RequestError("unknown-method", f"unknown method {method!r}")
        if method == "health":
            return self._health()
        if method == "stats":
            return self._stats()
        if method == "watch":
            return self._watch(params)
        if method == "shutdown":
            return self._shutdown()
        # A work verb: real work, subject to draining and limits.
        ctx = distributed.TraceContext.from_wire(params.get("trace"))
        if ctx is not None and ctx.sampled:
            # Head-sampling is re-decided here so ``--trace-sample`` can
            # throttle daemon-side tracing even when every client asks.
            if not distributed.sample(self.config.trace_sample):
                ctx = distributed.TraceContext(
                    ctx.trace_id, ctx.span_id, sampled=False
                )
                self.registry.inc("serve.trace_sampled_out")
            else:
                self.registry.inc("serve.trace_sampled")
        self.events.emit(
            "request.received",
            trace=ctx,
            method=method,
            workload=params.get("workload"),
        )
        if self._stopping.is_set():
            self.registry.inc("serve.rejected_draining")
            raise RequestError("draining", "server is shutting down")
        if client["inflight"] >= self.config.client_limit:
            self.registry.inc("serve.rejected_overloaded")
            self.events.emit(
                "request.overloaded", level="warn", trace=ctx, method=method
            )
            raise RequestError(
                "overloaded",
                f"client has {client['inflight']} requests in flight "
                f"(limit {self.config.client_limit})",
            )
        client["inflight"] += 1
        try:
            return await self._rpc_work(method, params, ctx)
        finally:
            client["inflight"] -= 1

    # -- methods -----------------------------------------------------------

    def _normalize(self, method: str, params: dict) -> Dict[str, object]:
        """The verb's params with every default filled in, minus the trace
        context — what the work fn sees and the flight key is made of."""
        from ..scheduler import HEURISTICS
        from ..workloads import default_tile_sizes, is_workload

        norm = protocol.fill_defaults(method, params)
        del norm["trace"]
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

    async def _rpc_work(self, method: str, params: dict, ctx) -> dict:
        """Single-flight dedup + trace/lifecycle bookkeeping for one verb.

        The flight key ignores the trace context on purpose: identical
        compiles dedup whether or not they are traced, so only the
        leader's request gets its span tree back (followers see
        ``deduped: true`` and can re-request untraced work).
        """
        norm = self._normalize(method, params)
        fn = self._work_fns[method]
        key = method + ":" + json.dumps(norm, sort_keys=True)
        task, leader = self._flight.task(key, lambda: self._lead(norm, fn, ctx))
        if not leader:
            self.registry.inc("serve.dedup_hits")
            self.events.emit(
                "request.deduped",
                trace=ctx,
                method=method,
                workload=norm.get("workload"),
            )
        summary = await self._await_flight(task, method, ctx)
        if summary.get("error"):
            self.events.emit(
                "request.failed",
                level="error",
                trace=ctx,
                method=method,
                error=summary["error"],
            )
            raise RequestError(f"{method}-error", summary["error"])
        result = dict(summary)
        trace_payload = result.pop("_trace", None)
        result["deduped"] = not leader
        if ctx is not None and ctx.sampled and trace_payload is not None:
            result["trace"] = trace_payload
        self.events.emit(
            "request.completed",
            trace=ctx,
            method=method,
            workload=norm.get("workload"),
            ms=result.get("compile_ms"),
            from_cache=bool(result.get("from_cache")),
            deduped=not leader,
        )
        return result

    async def _await_flight(self, task, method=None, ctx=None) -> dict:
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            self.registry.inc("serve.timeouts")
            self.events.emit(
                "request.timeout", level="warn", trace=ctx, method=method
            )
            raise RequestError(
                "timeout",
                f"request did not finish within {self.config.request_timeout}s "
                "(the compile continues server-side and will hit the cache)",
            )

    async def _lead(self, norm: dict, fn, ctx=None) -> dict:
        """The single-flight leader: run ``fn`` on the worker pool and fold
        its observations into the live registry."""
        loop = asyncio.get_running_loop()
        self._active_compiles += 1
        try:
            summary, report, wire = await loop.run_in_executor(
                self._executor, self._call_traced, fn, norm, ctx
            )
        finally:
            self._active_compiles -= 1
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
            summary = dict(summary)
            summary["_trace"] = wire
            # Also append to the event log so ``repro trace --request``
            # can stitch this daemon's lane from disk later.
            self.events.emit_trace(wire)
        return summary

    def _call_traced(self, fn, norm: dict, ctx):
        """Worker-thread wrapper: run ``fn`` under a tracing collector when
        the request carries a sampled context.

        Returns ``(summary, report, wire_spans|None)``.  Unsampled (or
        untraced) requests skip the collector entirely — the null-span
        fast path.  A traced request hands its collector to ``fn`` to
        reuse instead of opening an inner one — two stacked collectors
        would double the dispatch cost of every hot-loop counter, which
        is exactly the overhead the traced budget in
        ``bench_obs_overhead --serve`` polices."""
        if ctx is None or not ctx.sampled:
            summary, report = fn(norm, None)
            return summary, report, None
        with distributed.use_context(ctx):
            with obs.collect(trace=True) as traced:
                with obs.span(
                    "serve.request",
                    trace_id=ctx.trace_id,
                    parent_span_id=ctx.span_id,
                    workload=norm.get("workload"),
                ):
                    summary, report = fn(norm, traced)
        wire = distributed.report_to_wire(traced, service="daemon", ctx=ctx)
        return summary, report, wire

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
        estats = self.events.stats()
        self.registry.set_gauge("serve.events.buffered", estats["buffered"])
        self.registry.set_gauge("serve.events.dropped", estats["dropped"])
        self.registry.set_gauge("serve.events.written", estats["written"])
        self.registry.set_gauge("serve.ring.samples", len(self.ring))
        if self.cache is not None:
            for name, value in self.cache.stats.as_dict().items():
                self.registry.set_gauge(f"serve.cache.{name}", value)
            # Per-tier fabric metrics: counters and gauges become
            # ``serve.cache.tier.<tier>.<name>`` gauges, latency
            # histograms land in the registry under the same prefix.
            for tier, tstats in self.cache.tier_metrics():
                prefix = f"serve.cache.tier.{tier}"
                for name, value in tstats.counters().items():
                    self.registry.set_gauge(f"{prefix}.{name}", value)
                for name, value in tstats.gauges().items():
                    self.registry.set_gauge(f"{prefix}.{name}", value)
                for name, hist in tstats.histograms().items():
                    self.registry.histograms[f"{prefix}.{name}"] = hist
        return self.registry.snapshot()

    def _shutdown(self) -> dict:
        self.request_shutdown()
        return {"stopping": True, "inflight_compiles": self._active_compiles}

    # -- the real work (worker-pool threads) --------------------------------

    def _work(self, body, norm: dict, report):
        """The built-in work fn of every verb, on a worker thread: open a
        collector (or reuse ``report``, see ``_call_traced``), build the
        workload, run the verb's ``body(norm, program)``, time it.  A body
        that raises answers ``<verb>-error`` rather than taking the
        request down."""
        from ..workloads import build_workload

        t0 = perf_counter()
        with obs.collect() if report is None else nullcontext(report) as report:
            program = build_workload(norm["workload"], norm["size"])
            try:
                summary = body(norm, program)
            except Exception as exc:
                summary = {"error": f"{type(exc).__name__}: {exc}"}
        summary = {
            "workload": norm["workload"],
            "size": norm["size"],
            "from_cache": False,
            "error": None,
            **summary,
            "compile_ms": (perf_counter() - t0) * 1e3,
        }
        return summary, report

    def _compile(self, norm: dict, program) -> dict:
        """One compile through the batch driver, which sees the shared
        thread-safe cache: a warm fingerprint never compiles and a fresh
        result is stored for every later request (and process)."""
        from ..options import CompileOptions
        from ..service.driver import CompileRequest, compile_batch

        request = CompileRequest(
            program,
            target=norm["target"],
            tile_sizes=norm["tile_sizes"],
            startup=norm["startup"],
        )
        (outcome,) = compile_batch(
            [request], options=CompileOptions(mode="serial", cache=self.cache)
        )
        summary = {
            "target": norm["target"],
            "startup": norm["startup"],
            "fingerprint": outcome.fingerprint,
            "from_cache": outcome.from_cache,
            "error": outcome.error,
        }
        if outcome.ok:
            summary["tile_sizes"] = (
                list(outcome.result.tile_sizes)
                if outcome.result.tile_sizes is not None
                else None
            )
            summary["fusion"] = outcome.result.fusion_summary()
        return summary

    def _partition(self, norm: dict, program) -> dict:
        """Multi-target partitioning; every partition compiles through
        ``cached_optimize`` against the shared cache, so repeated
        partitions of the same pipeline are warm."""
        from ..options import PartitionOptions
        from ..partition import partition_pipeline

        sched = partition_pipeline(
            program,
            options=PartitionOptions(
                targets=tuple(norm["targets"]),
                startup=norm["startup"],
                cache=self.cache,
            ),
        )
        return {
            **sched.summary(),
            "targets_used": list(sched.targets_used),
            "degenerate": sched.is_degenerate,
        }

    def _autotune(self, norm: dict, program) -> dict:
        """Tile-size search against the machine model."""
        from ..options import CompileOptions
        from ..scheduler.autotune import autotune_tile_sizes

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
