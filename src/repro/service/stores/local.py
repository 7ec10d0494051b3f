"""Sharded local-directory store: the fabric's fast durable tier.

The on-disk layout is byte-compatible with the pre-fabric
``CompileCache`` disk tier, so existing cache directories keep working:

* results: ``<dir>/<key[:2]>/<key>.pkl``
* memos:   ``<dir>/memos/<key[:2]>/<key>.pkl``

Each file is a pickled ``(magic, schema, key, payload)`` envelope;
anything corrupt, truncated or from another schema generation is evicted
on load instead of crashing the compile.  Writes are atomic
(``mkstemp`` + ``os.replace``), so concurrent processes hammering one
directory can only ever observe whole entries.

Fabric additions over the inlined original:

* **Put skip** — keys are content-addressed, so an entry that already
  exists on disk is byte-identical to what we would write; ``put``
  checks ``os.path.exists`` first and skips the re-pickle + replace on
  the warm path (counted as ``put_skips``).
* **Running counters** — entry/byte totals per kind are kept
  incrementally (reconciled by one walk on first use) so ``info()`` is
  O(1) instead of re-walking the tree on every stats poll.
* **Garbage collection** — ``gc(max_bytes, max_age)`` drops entries
  older than ``max_age`` seconds, then evicts mtime-LRU entries until
  the store fits ``max_bytes``; ``put`` triggers an opportunistic sweep
  when a configured budget is exceeded (rate-limited so the hot path
  stays O(1) amortized).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from typing import Dict, List, Optional

from ...ir.fingerprint import SCHEMA_VERSION
from .base import (
    KINDS,
    CacheStore,
    EntryInfo,
    GCReport,
    check_kind,
    restricted_loads,
)

_MAGIC = "repro-cache"

#: Opportunistic GC runs at most once per this many puts.
GC_PUT_INTERVAL = 64

ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
ENV_MAX_AGE = "REPRO_CACHE_MAX_AGE"


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def default_gc_budget() -> tuple:
    """(max_bytes, max_age) from the environment, either may be None."""
    max_bytes = _env_float(ENV_MAX_BYTES)
    max_age = _env_float(ENV_MAX_AGE)
    return (int(max_bytes) if max_bytes is not None else None, max_age)


class LocalStore(CacheStore):
    """Durable sharded directory store (see module docstring)."""

    tier = "local"

    def __init__(
        self,
        directory: str,
        tier: Optional[str] = None,
        gc_max_bytes: Optional[int] = None,
        gc_max_age: Optional[float] = None,
    ):
        super().__init__(tier)
        self.directory = directory
        self.gc_max_bytes = gc_max_bytes
        self.gc_max_age = gc_max_age
        self._lock = threading.Lock()
        # Running totals per kind; None until the first reconcile walk.
        self._counts: Optional[Dict[str, int]] = None
        self._bytes: Optional[Dict[str, int]] = None
        self._puts_since_gc = 0

    # -- paths ---------------------------------------------------------------

    def _base(self, kind: str) -> str:
        check_kind(kind)
        if kind == "results":
            return self.directory
        return os.path.join(self.directory, kind)

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self._base(kind), key[:2], f"{key}.pkl")

    # -- core ops ------------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        self.stats.inc("gets")
        t0 = time.perf_counter()
        path = self.path(kind, key)
        try:
            with open(path, "rb") as f:
                # The envelope is plain data: no global may be named.
                entry = restricted_loads(f.read())
            magic, schema, stored_key, blob = entry
            if magic != _MAGIC or schema != SCHEMA_VERSION or stored_key != key:
                raise ValueError("stale or foreign cache entry")
            if not isinstance(blob, bytes):
                raise ValueError("malformed cache payload")
        except FileNotFoundError:
            blob = None
        except Exception:
            # Corrupted, truncated or stale entry: evict, never crash.
            self.stats.inc("errors")
            if self._remove(kind, path):
                self.stats.inc("evictions")
            blob = None
        self.stats.inc("misses" if blob is None else "hits")
        self.stats.observe_get(time.perf_counter() - t0)
        return blob

    def put(self, kind: str, key: str, blob: bytes) -> bool:
        self.stats.inc("puts")
        t0 = time.perf_counter()
        path = self.path(kind, key)
        try:
            if os.path.exists(path):
                # Content-addressed: same key, same bytes — skip the write.
                self.stats.inc("put_skips")
                return True
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump((_MAGIC, SCHEMA_VERSION, key, blob), f)
                size = os.path.getsize(tmp)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # A read-only or full cache dir degrades to memory-only.
            self.stats.inc("errors")
            return False
        finally:
            self.stats.observe_put(time.perf_counter() - t0)
        with self._lock:
            if self._counts is not None:
                self._counts[kind] += 1
                self._bytes[kind] += size
        self._maybe_gc()
        return True

    def delete(self, kind: str, key: str) -> bool:
        self.stats.inc("deletes")
        return self._remove(kind, self.path(kind, key))

    def _remove(self, kind: str, path: str) -> bool:
        try:
            size = os.path.getsize(path)
            os.unlink(path)
        except OSError:
            return False
        with self._lock:
            if self._counts is not None:
                self._counts[kind] = max(0, self._counts[kind] - 1)
                self._bytes[kind] = max(0, self._bytes[kind] - size)
        return True

    def contains(self, kind: str, key: str) -> bool:
        return os.path.exists(self.path(kind, key))

    def keys(self, kind: str) -> List[str]:
        return [e.key for e in self.entries(kind)]

    def clear(self, kind: str, remote: bool = False) -> int:
        removed = 0
        for e in self.entries(kind):
            if self._remove(kind, self.path(kind, e.key)):
                removed += 1
        return removed

    # -- walking + counters --------------------------------------------------

    def entries(self, kind: str) -> List[EntryInfo]:
        base = self._base(kind)
        out: List[EntryInfo] = []
        if not os.path.isdir(base):
            return out
        for sub in sorted(os.listdir(base)):
            subdir = os.path.join(base, sub)
            # The memos store nests under the results tree; don't count
            # its entries as results.
            if not os.path.isdir(subdir) or (kind == "results" and sub in KINDS):
                continue
            for name in sorted(os.listdir(subdir)):
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(subdir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append(EntryInfo(kind, name[: -len(".pkl")], st.st_size, st.st_mtime))
        return out

    def reconcile(self) -> None:
        """Re-walk the tree and resync the running entry/byte counters.

        Runs lazily on the first ``info()``/GC and after any sweep;
        cross-process writers drift the counters between reconciles,
        which is fine for stats polling (GC always re-walks).
        """
        counts = {k: 0 for k in KINDS}
        sizes = {k: 0 for k in KINDS}
        for kind in KINDS:
            for e in self.entries(kind):
                counts[kind] += 1
                sizes[kind] += e.size
        with self._lock:
            self._counts, self._bytes = counts, sizes

    def _counters(self) -> tuple:
        with self._lock:
            if self._counts is not None:
                return dict(self._counts), dict(self._bytes)
        self.reconcile()
        with self._lock:
            return dict(self._counts), dict(self._bytes)

    def info(self) -> Dict[str, object]:
        counts, sizes = self._counters()
        return {
            "tier": self.tier,
            "directory": self.directory,
            "schema_version": SCHEMA_VERSION,
            "entries": counts["results"],
            "bytes": sizes["results"],
            "memo_entries": counts["memos"],
            "memo_bytes": sizes["memos"],
            "gc_max_bytes": self.gc_max_bytes,
            "gc_max_age": self.gc_max_age,
            "stats": self.stats.as_dict(),
        }

    # -- garbage collection --------------------------------------------------

    def _maybe_gc(self) -> None:
        """Opportunistic sweep on put, rate-limited and budget-gated."""
        if self.gc_max_bytes is None and self.gc_max_age is None:
            return
        with self._lock:
            self._puts_since_gc += 1
            if self._puts_since_gc < GC_PUT_INTERVAL:
                # Cheap early-out: only sweep between intervals when the
                # running byte total is known to exceed the budget.
                if self.gc_max_bytes is None or self._bytes is None:
                    return
                if sum(self._bytes.values()) <= self.gc_max_bytes:
                    return
            self._puts_since_gc = 0
        self.gc(self.gc_max_bytes, self.gc_max_age)

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        """TTL expiry + mtime-LRU size eviction across both kinds.

        ``max_age`` is in seconds.  A dry run reports what would be
        removed without touching the tree.
        """
        report = GCReport(dry_run=dry_run)
        now = time.time()
        all_entries: List[EntryInfo] = []
        for kind in KINDS:
            all_entries.extend(self.entries(kind))
        report.scanned = len(all_entries)
        report.scanned_bytes = sum(e.size for e in all_entries)

        doomed: List[EntryInfo] = []
        survivors: List[EntryInfo] = []
        if max_age is not None:
            for e in all_entries:
                (doomed if now - e.mtime > max_age else survivors).append(e)
            report.expired = len(doomed)
        else:
            survivors = list(all_entries)

        if max_bytes is not None:
            total = sum(e.size for e in survivors)
            # Oldest first; ties broken by key for determinism.
            survivors.sort(key=lambda e: (e.mtime, e.key))
            i = 0
            while total > max_bytes and i < len(survivors):
                victim = survivors[i]
                doomed.append(victim)
                total -= victim.size
                report.evicted += 1
                i += 1
            survivors = survivors[i:]

        if not dry_run:
            for e in doomed:
                if self._remove(e.kind, self.path(e.kind, e.key)):
                    report.removed_bytes += e.size
                else:
                    report.errors += 1
            # The walk above is authoritative: resync the counters.
            counts = {k: 0 for k in KINDS}
            sizes = {k: 0 for k in KINDS}
            for e in survivors:
                counts[e.kind] += 1
                sizes[e.kind] += e.size
            with self._lock:
                self._counts, self._bytes = counts, sizes
        else:
            report.removed_bytes = sum(e.size for e in doomed)
        report.remaining_entries = len(survivors)
        report.remaining_bytes = sum(e.size for e in survivors)
        return report

    @property
    def spec(self) -> Optional[str]:
        return self.directory

    def __repr__(self) -> str:  # pragma: no cover
        return f"LocalStore({self.directory!r})"
