"""Layered store: local-first reads, write-behind remote publication.

The tiering policy of the fabric, as one composable store:

* **get** — local first (the hot path never pays remote latency); on a
  local miss, read through the remote tier and *backfill* the local
  store so the next read is local.
* **put** — local synchronously (compile results must survive the
  process), then enqueue the entry on a bounded flush queue; a single
  background thread publishes queued entries to the remote tier.  The
  compile hot path never blocks on remote latency, and a full queue
  drops the flush (counted, logged) rather than stall — the remote tier
  is an optimisation, the local tier is the source of truth.
* **get_many** — locals served individually, the misses fetched from
  the remote in one batched round trip, hits backfilled.
* **dead remote** — any transport failure marks the remote tier down
  for ``retry_interval`` seconds: reads and flushes skip it (counted as
  ``remote_down_skips``) instead of paying a timeout each, then one
  probe re-opens it.  A dead remote therefore degrades the fabric to
  exactly the pre-fabric local-only behavior, with zero request
  failures.

The layered store's own :class:`TierStats` carries the fabric-level
counters (backfills, flush queue depth/drops, down-skips); the wrapped
local and remote stores keep their own per-tier hit/miss/latency stats,
and :meth:`tiers` surfaces all three to the metrics registry.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .base import CacheStore, GCReport, StoreUnavailable, TierStats

logger = logging.getLogger("repro.cache")

#: Default bound on the write-behind queue (entries, not bytes).
DEFAULT_FLUSH_QUEUE = 256

#: Seconds a failed remote tier stays marked down before one retry probe.
DEFAULT_RETRY_INTERVAL = 5.0

_STOP = object()


class LayeredStore(CacheStore):
    """Local tier + remote tier under one :class:`CacheStore` surface."""

    tier = "layered"

    def __init__(
        self,
        local: CacheStore,
        remote: CacheStore,
        flush_queue: int = DEFAULT_FLUSH_QUEUE,
        retry_interval: float = DEFAULT_RETRY_INTERVAL,
    ):
        super().__init__()
        self.local = local
        self.remote = remote
        self.retry_interval = retry_interval
        self._queue: "queue.Queue" = queue.Queue(maxsize=flush_queue)
        self._outstanding = 0  # queued + currently flushing
        self._flush_cv = threading.Condition()
        self._down_until = 0.0
        self._down_lock = threading.Lock()
        self.stats.set_gauge("inflight_flush", 0)
        self.stats.set_gauge("remote_down", 0)
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-cache-flush", daemon=True
        )
        self._flusher.start()

    # -- remote liveness -----------------------------------------------------

    def _remote_alive(self) -> bool:
        with self._down_lock:
            return time.monotonic() >= self._down_until

    def _mark_remote_down(self, exc: Exception) -> None:
        with self._down_lock:
            was_down = time.monotonic() < self._down_until
            self._down_until = time.monotonic() + self.retry_interval
        self.stats.set_gauge("remote_down", 1)
        if not was_down:
            logger.warning(
                "remote cache tier unavailable, degrading to local-only "
                "for %.1fs: %s", self.retry_interval, exc
            )

    def _mark_remote_up(self) -> None:
        with self._down_lock:
            if self._down_until:
                self._down_until = 0.0
        self.stats.set_gauge("remote_down", 0)

    # -- reads ---------------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        blob = self.local.get(kind, key)
        if blob is not None:
            return blob
        blob = self._remote_get(kind, key)
        if blob is not None:
            self._backfill(kind, key, blob)
        return blob

    def get_many(self, kind: str, keys: Iterable[str]) -> Dict[str, bytes]:
        out: Dict[str, bytes] = {}
        missing: List[str] = []
        for key in keys:
            blob = self.local.get(kind, key)
            if blob is None:
                missing.append(key)
            else:
                out[key] = blob
        if missing and self._remote_alive():
            try:
                fetched = self.remote.get_many(kind, missing)
            except StoreUnavailable as exc:
                self._mark_remote_down(exc)
            else:
                self._mark_remote_up()
                for key, blob in fetched.items():
                    self._backfill(kind, key, blob)
                out.update(fetched)
        elif missing:
            self.stats.inc("remote_down_skips")
        return out

    def _remote_get(self, kind: str, key: str) -> Optional[bytes]:
        if not self._remote_alive():
            self.stats.inc("remote_down_skips")
            return None
        try:
            blob = self.remote.get(kind, key)
        except StoreUnavailable as exc:
            self._mark_remote_down(exc)
            return None
        self._mark_remote_up()
        return blob

    def _backfill(self, kind: str, key: str, blob: bytes) -> None:
        self.stats.inc("backfills")
        self.local.put(kind, key, blob)

    # -- writes --------------------------------------------------------------

    def put(self, kind: str, key: str, blob: bytes) -> bool:
        ok = self.local.put(kind, key, blob)
        self._enqueue_flush(kind, key, blob)
        return ok

    def delete(self, kind: str, key: str) -> bool:
        removed = self.local.delete(kind, key)
        if self._remote_alive():
            try:
                self.remote.delete(kind, key)
            except StoreUnavailable as exc:
                self._mark_remote_down(exc)
        return removed

    def _enqueue_flush(self, kind: str, key: str, blob: bytes) -> None:
        with self._flush_cv:
            try:
                self._queue.put_nowait((kind, key, blob))
            except queue.Full:
                self.stats.inc("flush_dropped")
                logger.warning(
                    "write-behind queue full (%d entries); dropping remote "
                    "flush of %s/%s", self._queue.maxsize, kind, key[:12]
                )
                return
            self._outstanding += 1
            self.stats.inc("flush_queued")
            self.stats.set_gauge("inflight_flush", self._outstanding)

    def _flush_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            kind, key, blob = item
            try:
                if self._remote_alive():
                    t0 = time.perf_counter()
                    try:
                        # The remote put-skip lives server-side in its
                        # LocalStore; a HEAD probe here would double the
                        # round trips for nothing.
                        self.remote.put(kind, key, blob)
                    except StoreUnavailable as exc:
                        self._mark_remote_down(exc)
                        self.stats.inc("flush_errors")
                    except Exception:
                        self.stats.inc("flush_errors")
                    else:
                        self._mark_remote_up()
                    finally:
                        self.stats.observe_flush(time.perf_counter() - t0)
                else:
                    self.stats.inc("remote_down_skips")
            finally:
                with self._flush_cv:
                    self._outstanding -= 1
                    self.stats.set_gauge("inflight_flush", self._outstanding)
                    self._flush_cv.notify_all()

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until the write-behind queue is drained (tests, drain)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._flush_cv:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._flush_cv.wait(remaining)
        return True

    # -- maintenance ---------------------------------------------------------

    def contains(self, kind: str, key: str) -> bool:
        if self.local.contains(kind, key):
            return True
        if not self._remote_alive():
            return False
        try:
            found = self.remote.contains(kind, key)
        except StoreUnavailable as exc:
            self._mark_remote_down(exc)
            return False
        self._mark_remote_up()
        return found

    def keys(self, kind: str) -> List[str]:
        return self.local.keys(kind)

    def entries(self, kind: str):
        return self.local.entries(kind)

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        """GC the *local* tier; the remote store garbage-collects itself
        (its own budget, its own ``repro cache gc`` / ``POST /gc``)."""
        return self.local.gc(max_bytes=max_bytes, max_age=max_age, dry_run=dry_run)

    def clear(self, kind: str, remote: bool = False) -> int:
        removed = self.local.clear(kind)
        if remote and self._remote_alive():
            try:
                self.remote.clear(kind)
            except StoreUnavailable as exc:
                self._mark_remote_down(exc)
        return removed

    def info(self) -> Dict[str, object]:
        info = dict(self.local.info())
        info["tier"] = self.tier
        info["fabric"] = self.stats.as_dict()
        info["remote"] = {
            "spec": self.remote.spec,
            "alive": self._remote_alive(),
            "stats": self.remote.stats.as_dict(),
        }
        return info

    def tiers(self) -> List[Tuple[str, TierStats]]:
        return (
            [(self.tier, self.stats)]
            + self.local.tiers()
            + self.remote.tiers()
        )

    def close(self) -> None:
        self.flush(timeout=5.0)
        self._queue.put(_STOP)
        self._flusher.join(5.0)
        self.local.close()
        self.remote.close()

    @property
    def spec(self) -> Optional[str]:
        local, remote = self.local.spec, self.remote.spec
        if local is None or remote is None:
            return None
        return f"tiered:{local}|{remote}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayeredStore(local={self.local!r}, remote={self.remote!r})"
