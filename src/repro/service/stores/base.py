"""The ``CacheStore`` interface: what every persistent cache tier speaks.

A store is a durable byte-blob map with two *kinds* of entries —
``"results"`` (pickled :class:`~repro.core.pipeline.OptimizeResult`
payloads) and ``"memos"`` (spilled presburger memo snapshots) — both
keyed by content-addressed fingerprints.  :class:`~repro.service.cache.
CompileCache` is a tiering *policy* (memory LRU + legacy stat ledger)
over one store; the store owns durability: on-disk framing, atomic
writes, corruption eviction, garbage collection.

Three implementations ship with the fabric:

* :class:`~repro.service.stores.local.LocalStore` — the sharded
  local-directory layout (what the pre-fabric ``CompileCache`` inlined);
* :class:`~repro.service.stores.remote.HTTPStore` — a blocking client
  for the tiny stdlib HTTP store server, so many compile servers share
  one warm tier;
* :class:`~repro.service.stores.layered.LayeredStore` — local-first
  reads with remote read-through + local backfill, and write-behind
  flushing to the remote tier from a bounded background queue.

Every store carries a :class:`TierStats` (thread-safe counters plus
get/put latency histograms) and exposes ``tiers()`` so composite stores
can surface *all* their tiers to the metrics registry.  Callers that
need per-operation outcomes (the legacy :class:`~repro.service.cache.
CacheStats` ledger) pass an :class:`OpLog`, which the store fills in
instead of raising: a cache tier must never take a compile down.
"""

from __future__ import annotations

import io
import pickle
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ...obs.metrics import Histogram

#: The two entry kinds every store must accept.
KINDS = ("results", "memos")

#: Histogram bucket bounds for store get/put latencies, in milliseconds.
STORE_LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0
)


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown cache entry kind {kind!r}; expected one of {KINDS}")
    return kind


class _RestrictedUnpickler(pickle.Unpickler):
    def __init__(self, file, allowed: Tuple[str, ...]):
        super().__init__(file)
        self.allowed = allowed

    def find_class(self, module: str, name: str):
        if f"{module}.{name}.".startswith(self.allowed):
            obj = super().find_class(module, name)
            if isinstance(obj, type) and obj.__module__ == module:
                return obj
        raise pickle.UnpicklingError(f"{module}.{name} is not allowed in a cache blob")


def restricted_loads(blob: bytes, allowed: Tuple[str, ...] = ()):
    """``pickle.loads`` for bytes some other process may have written.

    A global resolves only if it is a class, defined in the module the
    blob names, whose dotted name starts with one of ``allowed`` (each
    ending in ``"."``: ``"repro.ir."`` admits a package, ``"numpy.dtype."``
    one class).  Anything else raises before it is called, so a hostile
    blob fails to decode like a truncated one and runs nothing.
    """
    return _RestrictedUnpickler(io.BytesIO(blob), allowed).load()


@dataclass
class OpLog:
    """Per-operation outcome report, filled in by the store.

    The :class:`~repro.service.cache.CompileCache` ledger predates the
    store split and counts *policy-level* events (disk hits, corrupt
    evictions, degraded writes); stores report those through this log so
    the legacy counters keep their exact semantics without the store
    having to know about them.
    """

    tier: Optional[str] = None  #: tier that served a hit ("local"/"remote")
    errors: int = 0  #: I/O or corruption errors encountered
    evictions: int = 0  #: corrupt/stale entries evicted along the way
    stored: bool = False  #: a put wrote a new durable entry
    skipped: bool = False  #: a put was skipped (entry already durable)


class EntryInfo(NamedTuple):
    """One durable entry, as seen by ``entries()``/GC."""

    kind: str
    key: str
    size: int
    mtime: float


class TierStats:
    """Thread-safe per-tier counters and latency histograms.

    One instance per concrete tier; composite stores aggregate via
    :meth:`CacheStore.tiers`.  ``counters``/``gauges``/``histograms``
    snapshot into plain dicts for ``cache info`` and the serve daemon's
    ``repro-metrics/1`` endpoint.
    """

    COUNTER_NAMES = (
        "gets", "hits", "misses", "puts", "put_skips", "deletes",
        "errors", "evictions", "backfills", "batched_gets",
        "flush_queued", "flush_dropped", "flush_errors", "remote_down_skips",
    )

    def __init__(self, tier: str):
        self.tier = tier
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self.get_ms = Histogram(STORE_LATENCY_BUCKETS_MS)
        self.put_ms = Histogram(STORE_LATENCY_BUCKETS_MS)
        self.flush_ms = Histogram(STORE_LATENCY_BUCKETS_MS)

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe_get(self, seconds: float) -> None:
        with self._lock:
            self.get_ms.observe(seconds * 1e3)

    def observe_put(self, seconds: float) -> None:
        with self._lock:
            self.put_ms.observe(seconds * 1e3)

    def observe_flush(self, seconds: float) -> None:
        with self._lock:
            self.flush_ms.observe(seconds * 1e3)

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """Fresh copies, safe to hand to a registry or serializer."""
        with self._lock:
            return {
                "get_ms": Histogram.from_dict(self.get_ms.as_dict()),
                "put_ms": Histogram.from_dict(self.put_ms.as_dict()),
                "flush_ms": Histogram.from_dict(self.flush_ms.as_dict()),
            }

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.counters())
        out.update(self.gauges())
        with self._lock:
            out["get_ms_mean"] = self.get_ms.mean
            out["put_ms_mean"] = self.put_ms.mean
            out["flush_ms_mean"] = self.flush_ms.mean
        return out


@dataclass
class GCReport:
    """What one garbage-collection sweep did (or would do)."""

    scanned: int = 0
    scanned_bytes: int = 0
    expired: int = 0  #: entries past ``max_age``
    evicted: int = 0  #: mtime-LRU evictions to meet ``max_bytes``
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False
    errors: int = 0

    @property
    def removed(self) -> int:
        return self.expired + self.evicted

    def as_dict(self) -> Dict[str, object]:
        return {
            "scanned": self.scanned,
            "scanned_bytes": self.scanned_bytes,
            "expired": self.expired,
            "evicted": self.evicted,
            "removed": self.removed,
            "removed_bytes": self.removed_bytes,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
            "errors": self.errors,
        }

    def merge(self, other: "GCReport") -> "GCReport":
        self.scanned += other.scanned
        self.scanned_bytes += other.scanned_bytes
        self.expired += other.expired
        self.evicted += other.evicted
        self.removed_bytes += other.removed_bytes
        self.remaining_entries += other.remaining_entries
        self.remaining_bytes += other.remaining_bytes
        self.errors += other.errors
        self.dry_run = self.dry_run or other.dry_run
        return self


class CacheStore:
    """Abstract persistent tier.  Payloads are opaque bytes; keys are
    content-addressed fingerprints (hex strings, >= 4 chars).

    Implementations must be thread-safe and must never raise out of
    ``get``/``put``/``delete`` for I/O or data errors — report through
    the :class:`OpLog` and their :class:`TierStats` instead.  (Remote
    stores raise :class:`StoreUnavailable` from transport failures so the
    layered tier can count and back off; the layered store swallows it.)
    """

    #: Human-readable tier name ("local", "remote", "layered", ...).
    tier = "store"

    def __init__(self, tier: Optional[str] = None):
        if tier is not None:
            self.tier = tier
        self.stats = TierStats(self.tier)

    # -- required interface -------------------------------------------------

    def get(self, kind: str, key: str, log: Optional[OpLog] = None) -> Optional[bytes]:
        raise NotImplementedError

    def put(self, kind: str, key: str, blob: bytes, log: Optional[OpLog] = None) -> bool:
        """Make ``blob`` durable under ``(kind, key)``; True on success
        (including a skip because the entry already exists)."""
        raise NotImplementedError

    def delete(self, kind: str, key: str) -> bool:
        raise NotImplementedError

    def keys(self, kind: str) -> List[str]:
        raise NotImplementedError

    def info(self) -> Dict[str, object]:
        raise NotImplementedError

    # -- optional interface (sane defaults) ---------------------------------

    def get_many(
        self, kind: str, keys: Iterable[str], log: Optional[OpLog] = None
    ) -> Dict[str, bytes]:
        """Batched get; one round trip where the transport allows it."""
        out: Dict[str, bytes] = {}
        for key in keys:
            blob = self.get(kind, key, log)
            if blob is not None:
                out[key] = blob
        return out

    def contains(self, kind: str, key: str) -> bool:
        return self.get(kind, key) is not None

    def entries(self, kind: str) -> List[EntryInfo]:
        return []

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        return GCReport(dry_run=dry_run)

    def clear(self, kind: str) -> int:
        removed = 0
        for key in self.keys(kind):
            if self.delete(kind, key):
                removed += 1
        return removed

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait for any write-behind work to land; True when drained."""
        return True

    def close(self) -> None:
        pass

    def tiers(self) -> List[Tuple[str, TierStats]]:
        """Every (tier name, stats) pair this store aggregates."""
        return [(self.tier, self.stats)]

    @property
    def spec(self) -> Optional[str]:
        """A string :func:`~repro.service.cache.resolve_cache` can turn
        back into an equivalent store in another process, or ``None``
        when the store is not spec-addressable (tests, fakes)."""
        return None


class StoreUnavailable(Exception):
    """A remote tier could not be reached (connect/timeout/HTTP 5xx)."""


__all__ = [
    "KINDS",
    "CacheStore",
    "EntryInfo",
    "GCReport",
    "OpLog",
    "StoreUnavailable",
    "TierStats",
    "check_kind",
    "restricted_loads",
]
