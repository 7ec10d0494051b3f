"""Tiered compile-result cache: in-process LRU over pluggable stores.

Keys are the content-addressed fingerprints of
:mod:`repro.service.fingerprint`; values are pickled
:class:`~repro.core.pipeline.OptimizeResult` objects.  A memory-tier entry
(bounded by entry count and total encoded size) keeps the encoded bytes
and, for a value that says how to hand out an unshared copy (``fresh()``),
the instance decoded from them, at most once; a hit returns
``instance.fresh()``, so the part a caller may rewrite is never shared.
``put`` keeps bytes only and never the caller's object, and a value without
``fresh()`` is decoded again on every hit.  Every decode goes through
:func:`~repro.service.stores.base.restricted_loads` with
:data:`BLOB_GLOBALS` and counts ``service.cache.decode``: a blob naming
anything but the compiler's own value classes is an error, an eviction and
a miss, on every tier.

Below the memory tier, :class:`CompileCache` is a *policy* over one
:class:`~repro.service.stores.CacheStore` — the cache fabric:

* the default store is a :class:`~repro.service.stores.LocalStore`, the
  sharded on-disk layout under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro``) that survives processes; entries are written
  atomically and carry a schema version, so a corrupted or stale file is
  silently evicted on load instead of crashing the compile;
* with a ``remote`` spec (``$REPRO_CACHE_REMOTE``, a ``--cache-remote``
  flag, or a ``tiered:<local>|<remote>`` cache spelling) the store
  becomes a :class:`~repro.service.stores.LayeredStore`: local-first
  reads, remote read-through with local backfill, and write-behind
  publication to the shared tier — many compile servers sharing one warm
  state, sccache-style;
* stores garbage-collect by TTL and size budget (``repro cache gc``,
  ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_AGE``, opportunistic
  sweeps on put) with mtime-LRU eviction.

Next to the result store the cache keeps a ``memos`` store: spilled
presburger memo-table snapshots (:func:`repro.presburger.memo.snapshot`)
keyed by *program* fingerprint, so a fresh process compiling the same
program starts with the hot ``apply_range``/``tile_footprint``/
``write_footprint`` entries already resident.  ``get_memos_many``
fetches a whole batch's snapshots in one remote round trip.

A single :class:`CompileCache` instance is safe to share across threads:
the memory tier (the LRU ``OrderedDict`` and its byte accounting) and
the stats counters are guarded by an internal lock; stores are
thread-safe themselves.  Disk/network I/O and (un)pickling happen
outside the lock, so two threads racing on an entry's first hit may both
decode it; each publishes a whole instance.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .. import obs
from ..ir.fingerprint import SCHEMA_VERSION
from .stores import (
    TIERED_PREFIX,
    CacheStore,
    LayeredStore,
    OpLog,
    default_gc_budget,
    resolve_store,
)
from .stores.base import GCReport, TierStats, restricted_loads

#: What a result or memo blob may name: the compiler's own value classes.
BLOB_GLOBALS = tuple(
    f"repro.{pkg}."
    for pkg in ("presburger", "ir", "deps", "schedule", "scheduler", "core")
) + ("numpy.float64.", "numpy.dtype.")

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_REMOTE = "REPRO_CACHE_REMOTE"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_remote_spec() -> Optional[str]:
    """The fleet-wide shared tier, when ``$REPRO_CACHE_REMOTE`` is set."""
    return os.environ.get(ENV_CACHE_REMOTE) or None


def _decode(blob: bytes):
    obs.count("service.cache.decode")
    return restricted_loads(blob, BLOB_GLOBALS)


class _Entry:
    """A memory-tier slot: the encoded bytes and, after the first hit on a
    value with ``fresh()``, the tier's own instance decoded from them."""

    __slots__ = ("blob", "obj")

    def __init__(self, blob: bytes):
        self.blob = blob
        self.obj = None

    def hand_out(self, value):
        """What a hit that decoded (or found) ``value`` returns."""
        if not hasattr(value, "fresh"):
            return value
        self.obj = value
        return value.fresh()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`CompileCache`.

    This is the legacy policy-level ledger (``optimize --stats``, the
    serve daemon's ``serve.cache.*`` gauges); per-tier counters and
    latency histograms live on each store's
    :class:`~repro.service.stores.TierStats` (``tier_metrics()``).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    misses: int = 0
    stores: int = 0
    skipped_stores: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    errors: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "remote_hits": self.remote_hits,
            "misses": self.misses,
            "stores": self.stores,
            "skipped_stores": self.skipped_stores,
            "memory_evictions": self.memory_evictions,
            "disk_evictions": self.disk_evictions,
            "errors": self.errors,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_stores": self.memo_stores,
        }


@dataclass
class CompileCache:
    """Content-addressed result cache: LRU memory tier over one store.

    ``cache_dir`` names the local tier's directory; ``remote`` is an
    optional remote-tier spec (an ``http://host:port`` store server or a
    shared directory) that upgrades the store to a layered local+remote
    fabric.  Pass ``store`` to supply a ready-made
    :class:`~repro.service.stores.CacheStore` instead (tests, exotic
    tierings); ``persistent=False`` keeps everything in memory.
    """

    cache_dir: Optional[str] = None
    max_entries: int = 128
    max_bytes: int = 256 * 1024 * 1024
    persistent: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    remote: Optional[str] = None
    gc_max_bytes: Optional[int] = None
    gc_max_age: Optional[float] = None
    store: Optional[CacheStore] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.store is None and self.cache_dir is None:
            self.cache_dir = default_cache_dir()
        if self.cache_dir is not None:
            self.cache_dir = os.fspath(self.cache_dir)
        if self.gc_max_bytes is None and self.gc_max_age is None:
            self.gc_max_bytes, self.gc_max_age = default_gc_budget()
        if not self.persistent:
            self.store = None
        elif self.store is None:
            self.store = self._build_store()
        self._mem: "OrderedDict[str, _Entry]" = OrderedDict()
        self._mem_bytes = 0
        self._lock = threading.RLock()

    def _build_store(self) -> CacheStore:
        spec = self.cache_dir
        if self.remote:
            spec = f"{TIERED_PREFIX}{self.cache_dir}|{self.remote}"
        return resolve_store(
            spec, gc_max_bytes=self.gc_max_bytes, gc_max_age=self.gc_max_age
        )

    def __getstate__(self):
        """Ships the memory tier as encoded entries only: the other side
        decodes its own instances."""
        with self._lock:
            state = self.__dict__.copy()
            state["_mem"] = OrderedDict(
                (key, _Entry(entry.blob)) for key, entry in self._mem.items()
            )
        del state["_lock"]
        # Stores hold locks, sockets and flush threads; rebuild from the
        # spec fields on the other side.
        state["store"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.persistent and self.store is None:
            self.store = self._build_store()
        self._lock = threading.RLock()

    @property
    def spec(self) -> Optional[str]:
        """A flat string :func:`resolve_cache` turns back into an
        equivalent cache in another process, or ``None`` when the store
        is memory-only or not spec-addressable."""
        if self.store is None:
            return None
        return self.store.spec

    # -- lookup ------------------------------------------------------------

    def _ledger(self, log: OpLog) -> None:
        if log.errors or log.evictions:
            with self._lock:
                self.stats.errors += log.errors
                self.stats.disk_evictions += log.evictions

    def get(self, key: str):
        """The cached value, or ``None`` on a miss.  A value with
        ``fresh()`` is decoded once per entry and handed out as
        ``fresh()`` copies; any other value is decoded anew for every hit.
        A store hit inserts what it decoded, so it is not decoded again."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
        if entry is not None:
            try:
                value = entry.obj if entry.obj is not None else _decode(entry.blob)
            except Exception:
                with self._lock:
                    self._evict_memory(key)
                    self.stats.errors += 1
            else:
                with self._lock:
                    self.stats.memory_hits += 1
                return entry.hand_out(value)
        if self.store is not None:
            log = OpLog()
            blob = self.store.get("results", key, log)
            self._ledger(log)
            if blob is not None:
                try:
                    value = _decode(blob)
                except Exception:
                    self.store.delete("results", key)
                    with self._lock:
                        self.stats.errors += 1
                        self.stats.disk_evictions += 1
                else:
                    with self._lock:
                        self.stats.disk_hits += 1
                        if log.tier == "remote":
                            self.stats.remote_hits += 1
                        entry = self._insert_memory(key, blob)
                    return entry.hand_out(value)
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, value) -> None:
        try:
            blob = pickle.dumps(value)
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self.stats.stores += 1
            self._insert_memory(key, blob)
        if self.store is not None:
            log = OpLog()
            self.store.put("results", key, blob, log)
            self._ledger(log)
            if log.skipped:
                with self._lock:
                    self.stats.skipped_stores += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._mem:
                return True
        return self.store is not None and self.store.contains("results", key)

    # -- memory tier -------------------------------------------------------

    def _insert_memory(self, key: str, blob: bytes) -> _Entry:
        with self._lock:
            if key in self._mem:
                self._mem_bytes -= len(self._mem.pop(key).blob)
            entry = self._mem[key] = _Entry(blob)
            self._mem_bytes += len(blob)
            while self._mem and (
                len(self._mem) > self.max_entries
                or self._mem_bytes > self.max_bytes
            ):
                _, old = self._mem.popitem(last=False)
                self._mem_bytes -= len(old.blob)
                self.stats.memory_evictions += 1
            return entry

    def _evict_memory(self, key: str) -> None:
        with self._lock:
            entry = self._mem.pop(key, None)
            if entry is not None:
                self._mem_bytes -= len(entry.blob)
                self.stats.memory_evictions += 1

    # -- memo store --------------------------------------------------------

    def get_memos(self, key: str):
        """The spilled memo snapshot for ``key`` (a program fingerprint),
        or ``None``.  Store-only: memo entries live in the process-wide
        memo tables once loaded, so there is nothing to tier in memory."""
        if self.store is None:
            return None
        log = OpLog()
        blob = self.store.get("memos", key, log)
        self._ledger(log)
        if blob is not None:
            try:
                value = _decode(blob)
            except Exception:
                self.store.delete("memos", key)
                with self._lock:
                    self.stats.errors += 1
                    self.stats.disk_evictions += 1
            else:
                with self._lock:
                    self.stats.memo_hits += 1
                return value
        with self._lock:
            self.stats.memo_misses += 1
        return None

    def get_memos_many(self, keys: Iterable[str]) -> Dict[str, object]:
        """Batched :meth:`get_memos`: every snapshot the store has for
        ``keys``, fetched from the remote tier in one round trip.  Used
        by ``compile_batch`` and the serve daemon to warm a whole batch's
        programs at once."""
        keys = list(dict.fromkeys(keys))
        if self.store is None or not keys:
            with self._lock:
                self.stats.memo_misses += len(keys)
            return {}
        log = OpLog()
        blobs = self.store.get_many("memos", keys, log)
        self._ledger(log)
        out: Dict[str, object] = {}
        for key, blob in blobs.items():
            try:
                out[key] = _decode(blob)
            except Exception:
                self.store.delete("memos", key)
                with self._lock:
                    self.stats.errors += 1
                    self.stats.disk_evictions += 1
        with self._lock:
            self.stats.memo_hits += len(out)
            self.stats.memo_misses += len(keys) - len(out)
        return out

    def put_memos(self, key: str, snapshot) -> None:
        """Persist a memo snapshot under ``key``; empty snapshots are
        skipped (nothing to warm-start from)."""
        if self.store is None or not snapshot:
            return
        try:
            blob = pickle.dumps(snapshot)
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self.stats.memo_stores += 1
        log = OpLog()
        self.store.put("memos", key, blob, log)
        self._ledger(log)
        if log.skipped:
            with self._lock:
                self.stats.skipped_stores += 1

    # -- maintenance -------------------------------------------------------

    def clear(self, results: bool = True, memos: bool = True, remote: bool = False) -> int:
        """Drop the selected stores (and the memory tier when ``results``);
        returns the number of local entries removed.  The remote tier is
        only touched when ``remote=True`` — it is shared state."""
        removed = 0
        if results:
            with self._lock:
                self._mem.clear()
                self._mem_bytes = 0
        if self.store is None:
            return 0
        kinds = [k for k, on in (("results", results), ("memos", memos)) if on]
        for kind in kinds:
            if isinstance(self.store, LayeredStore):
                removed += self.store.clear(kind, remote=remote)
            else:
                removed += self.store.clear(kind)
        return removed

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        """Garbage-collect the local tier: TTL expiry plus mtime-LRU
        eviction down to the byte budget.  Defaults to the configured
        budgets (``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_AGE``)."""
        if self.store is None:
            return GCReport(dry_run=dry_run)
        return self.store.gc(
            max_bytes=max_bytes if max_bytes is not None else self.gc_max_bytes,
            max_age=max_age if max_age is not None else self.gc_max_age,
            dry_run=dry_run,
        )

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Drain any write-behind publication to the remote tier."""
        return True if self.store is None else self.store.flush(timeout)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def tier_metrics(self) -> List[Tuple[str, TierStats]]:
        """Every (tier name, stats) pair of the underlying store fabric."""
        return [] if self.store is None else self.store.tiers()

    def info(self) -> Dict[str, object]:
        if self.store is not None:
            sinfo = self.store.info()
        else:
            sinfo = {"entries": 0, "bytes": 0, "memo_entries": 0, "memo_bytes": 0}
        with self._lock:
            memory_entries = len(self._mem)
            memory_bytes = self._mem_bytes
            stats = self.stats.as_dict()
        info: Dict[str, object] = {
            "cache_dir": self.cache_dir,
            "schema_version": SCHEMA_VERSION,
            "disk_entries": sinfo.get("entries", 0),
            "disk_bytes": sinfo.get("bytes", 0),
            "memo_entries": sinfo.get("memo_entries", 0),
            "memo_bytes": sinfo.get("memo_bytes", 0),
            "memory_entries": memory_entries,
            "memory_bytes": memory_bytes,
            "gc_max_bytes": self.gc_max_bytes,
            "gc_max_age": self.gc_max_age,
            "stats": stats,
            "tiers": {
                tier: tstats.as_dict() for tier, tstats in self.tier_metrics()
            },
        }
        if "remote" in sinfo:
            info["remote"] = sinfo["remote"]
        return info


_default: Optional[Tuple[Tuple[str, Optional[str]], CompileCache]] = None


def default_cache() -> CompileCache:
    """The process-wide cache, rebuilt if ``$REPRO_CACHE_DIR`` or
    ``$REPRO_CACHE_REMOTE`` changes."""
    global _default
    key = (default_cache_dir(), default_remote_spec())
    if _default is None or _default[0] != key:
        _default = (key, CompileCache(cache_dir=key[0], remote=key[1]))
    return _default[1]


def reset_default_cache() -> None:
    """Forget the process-wide cache instance (tests, env changes)."""
    global _default
    _default = None


def _named_dir(name: str) -> str:
    return os.path.join(default_cache_dir(), "named", name)


def _spec_dir(path: str) -> str:
    """A directory from a local-tier spelling: bare names are namespaced
    under ``<default_cache_dir()>/named/``, paths pass through."""
    if path == "default":
        return default_cache_dir()
    if os.sep not in path and "/" not in path and not path.startswith("~"):
        return _named_dir(path)
    return os.path.expanduser(path)


def resolve_cache(spec) -> CompileCache:
    """A :class:`CompileCache` from a string/path/mapping spelling.

    * ``"default"`` — the process-wide :func:`default_cache`;
    * a bare name (no path separator, no ``~``) — a named cache under
      ``<default_cache_dir()>/named/<name>`` so ad-hoc caches never
      collide with the default cache's own stores;
    * ``"tiered:<local>|<remote>"`` — a layered fabric: ``<local>`` is
      any of the spellings above, ``<remote>`` an ``http://host:port``
      store server or a shared directory;
    * ``"http://host:port"`` — a remote-only cache (no local tier);
    * a mapping — ``{"local": ..., "remote": ..., "gc_max_bytes": ...,
      "gc_max_age": ..., "max_entries": ..., "max_bytes": ...}``;
    * anything else — an explicit directory path (``~`` expanded).

    :class:`CompileCache` instances pass through unchanged.
    """
    if isinstance(spec, CompileCache):
        return spec
    if isinstance(spec, Mapping):
        kwargs = dict(spec)
        local = kwargs.pop("local", "default")
        return CompileCache(cache_dir=_spec_dir(os.fspath(local)), **kwargs)
    path = os.fspath(spec)
    if path == "default":
        return default_cache()
    if path.startswith(TIERED_PREFIX):
        body = path[len(TIERED_PREFIX):]
        local, sep, remote = body.partition("|")
        if not sep or not local or not remote:
            raise ValueError(
                f"tiered cache spec must be 'tiered:<local>|<remote>', got {path!r}"
            )
        return CompileCache(cache_dir=_spec_dir(local), remote=remote)
    if path.startswith("http://"):
        return CompileCache(
            cache_dir=None,
            persistent=True,
            store=resolve_store(path, tier="remote"),
        )
    return CompileCache(cache_dir=_spec_dir(path))
