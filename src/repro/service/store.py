"""The compile cache's durable store: one sharded directory.

A store is a durable byte-blob map with two *kinds* of entries —
``"results"`` (pickled :class:`~repro.core.pipeline.OptimizeResult`
payloads) and ``"memos"`` (spilled presburger memo snapshots) — both
keyed by content-addressed fingerprints.
:class:`~repro.service.cache.CompileCache` is a *policy* (memory LRU +
the counters of what it decides) over one :class:`LocalStore`; the store
owns durability.  The layout:

* results: ``<dir>/<key[:2]>/<key>.pkl``
* memos:   ``<dir>/memos/<key[:2]>/<key>.pkl``

Each file is a fixed-size prefix (the magic ``repro-cache``, the schema
generation as a big-endian short, the 64-character key) and then the
payload as it was put.  ``get`` checks the prefix and returns the rest of
the file; ``get_head`` reads only as far as a payload's length-prefixed
head (a result entry's JSON header).  A file whose prefix is short, or
names another magic, schema generation or key, is an error and an
eviction instead of crashing the compile; reading an entry unpickles
nothing.  Writes are atomic (``mkstemp`` + ``os.replace``), so processes
sharing one directory — several daemons given the same ``--cache`` —
only ever observe whole entries.  On top of that:

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
  stays O(1) amortized).  :func:`default_gc_budget` reads the budget
  from ``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_AGE`` with the
  parsers ``repro cache gc --max-bytes/--max-age`` use.

The store counts what happens inside it in its :class:`TierStats`
(``CompileCache.counters`` names them ``tier.local.<name>``) and never
raises out of ``get``/``put``/``delete`` for I/O or data errors;
``info()`` describes the directory, not the counters.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..ir.fingerprint import SCHEMA_VERSION
from ..obs.metrics import Histogram

#: The two entry kinds a store accepts.
KINDS = ("results", "memos")

#: Histogram bucket bounds for store get/put latencies, in milliseconds.
STORE_LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0
)

#: An entry file is this fixed-size prefix, then the payload as it was put:
#: the magic, the schema generation and the entry's (64-character) key.
_PREFIX = struct.Struct(">11sH64s")
_MAGIC = b"repro-cache"

#: The length in front of a payload's head (:meth:`LocalStore.get_head`).
HEAD_LEN = struct.Struct(">I")

#: Opportunistic GC runs at most once per this many puts.
GC_PUT_INTERVAL = 64

ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
ENV_MAX_AGE = "REPRO_CACHE_MAX_AGE"

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_size(text: Optional[str]) -> Optional[int]:
    """``"500M"`` → bytes; bare numbers are bytes already."""
    if text is None:
        return None
    text = text.strip().lower().rstrip("b").rstrip("i")
    if text and text[-1] in _SIZE_SUFFIXES:
        return int(float(text[:-1]) * _SIZE_SUFFIXES[text[-1]])
    return int(float(text))


def parse_age(text: Optional[str]) -> Optional[float]:
    """``"7d"`` → seconds; bare numbers are seconds already."""
    if text is None:
        return None
    text = text.strip().lower()
    if text and text[-1] in _AGE_SUFFIXES:
        return float(text[:-1]) * _AGE_SUFFIXES[text[-1]]
    return float(text)


def _from_env(name: str, parse):
    raw = os.environ.get(name) or None
    try:
        return parse(raw)
    except (ValueError, OverflowError):
        raise ValueError(f"cannot parse ${name}={raw!r}") from None


def default_gc_budget() -> Tuple[Optional[int], Optional[float]]:
    """(max_bytes, max_age) from the environment, either may be None.

    The variables take the flags' spelling (``500M``, ``7d``); a value
    the parser cannot read raises ``ValueError`` naming the variable.
    """
    return _from_env(ENV_MAX_BYTES, parse_size), _from_env(ENV_MAX_AGE, parse_age)


def _prefix(key: str) -> bytes:
    """The prefix of the entry file for ``key``."""
    raw = key.encode("ascii")
    if len(raw) > 64:
        raise ValueError(f"cache key longer than 64 characters: {key!r}")
    return _PREFIX.pack(_MAGIC, SCHEMA_VERSION, raw)


def _read_head(f) -> bytes:
    raw = f.read(HEAD_LEN.size)
    if len(raw) < HEAD_LEN.size:
        return raw
    return raw + f.read(HEAD_LEN.unpack(raw)[0])


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown cache entry kind {kind!r}; expected one of {KINDS}")


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
    ending in ``"."``: ``"repro.ir."`` admits a package,
    ``"repro.ir.tensor.Tensor."`` one class).  Anything else raises before
    it is called, so a hostile blob fails to decode like a truncated one
    and runs nothing.
    """
    return _RestrictedUnpickler(io.BytesIO(blob), allowed).load()


class EntryInfo(NamedTuple):
    """One durable entry, as seen by ``entries()``/GC."""

    kind: str
    key: str
    size: int
    mtime: float


class TierStats:
    """Thread-safe store counters and get/put latency histograms.

    ``counters``/``histograms`` snapshot into plain dicts for
    ``CompileCache.counters`` and the serve daemon's ``repro-metrics/1``
    endpoint.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self.get_ms = Histogram(STORE_LATENCY_BUCKETS_MS)
        self.put_ms = Histogram(STORE_LATENCY_BUCKETS_MS)

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe_get(self, seconds: float) -> None:
        with self._lock:
            self.get_ms.observe(seconds * 1e3)

    def observe_put(self, seconds: float) -> None:
        with self._lock:
            self.put_ms.observe(seconds * 1e3)

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def histograms(self) -> Dict[str, Histogram]:
        """Fresh copies, safe to hand to a registry or serializer."""
        with self._lock:
            return {
                "get_ms": Histogram.from_dict(self.get_ms.as_dict()),
                "put_ms": Histogram.from_dict(self.put_ms.as_dict()),
            }


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


class LocalStore:
    """Durable sharded directory store (see module docstring).  Keys are
    content-addressed fingerprints (hex strings, >= 4 chars); payloads
    are opaque bytes.  Thread-safe."""

    def __init__(
        self,
        directory: str,
        gc_max_bytes: Optional[int] = None,
        gc_max_age: Optional[float] = None,
    ):
        self.directory = directory
        self.gc_max_bytes = gc_max_bytes
        self.gc_max_age = gc_max_age
        self.stats = TierStats()
        self._lock = threading.Lock()
        # Running totals per kind; None until the first reconcile walk.
        self._counts: Optional[Dict[str, int]] = None
        self._bytes: Optional[Dict[str, int]] = None
        self._puts_since_gc = 0

    # -- paths ---------------------------------------------------------------

    def _base(self, kind: str) -> str:
        _check_kind(kind)
        if kind == "results":
            return self.directory
        return os.path.join(self.directory, kind)

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self._base(kind), key[:2], f"{key}.pkl")

    # -- core ops ------------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        self.stats.inc("gets")
        t0 = time.perf_counter()
        blob = self._read(kind, key, lambda f: f.read())
        self.stats.inc("misses" if blob is None else "hits")
        self.stats.observe_get(time.perf_counter() - t0)
        return blob

    def get_head(self, kind: str, key: str) -> Optional[bytes]:
        """The head of the payload under ``(kind, key)``: its first 4 bytes,
        read as a big-endian length, and at most that many bytes after
        them (fewer only if the file ends first).  ``None`` on a miss.
        Reads nothing past the head and counts ``head_gets``, not
        ``gets``; a bad prefix is an error and an eviction as for
        :meth:`get`."""
        self.stats.inc("head_gets")
        return self._read(kind, key, _read_head)

    def _read(self, kind: str, key: str, body) -> Optional[bytes]:
        """``body(f)`` of the entry file, after checking its prefix."""
        path = self.path(kind, key)
        try:
            with open(path, "rb") as f:
                if f.read(_PREFIX.size) != _prefix(key):
                    raise ValueError("stale, foreign or truncated cache entry")
                return body(f)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupted, truncated or stale entry: evict, never crash.
            self.stats.inc("errors")
            if self._remove(kind, path):
                self.stats.inc("evictions")
            return None

    def put(self, kind: str, key: str, blob: bytes) -> bool:
        """Make ``blob`` durable under ``(kind, key)``; True on success
        (including a skip because the entry already exists)."""
        self.stats.inc("puts")
        t0 = time.perf_counter()
        path = self.path(kind, key)
        try:
            if os.path.exists(path):
                # Content-addressed: same key, same bytes — skip the write.
                self.stats.inc("put_skips")
                return True
            prefix = _prefix(key)
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            except FileNotFoundError:  # the entry's shard is new
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(prefix)
                    f.write(blob)
                size = len(prefix) + len(blob)
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

    def clear(self, kind: str) -> int:
        """Delete every ``kind`` entry; returns how many went."""
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
            "directory": self.directory,
            "schema_version": SCHEMA_VERSION,
            "entries": counts["results"],
            "bytes": sizes["results"],
            "memo_entries": counts["memos"],
            "memo_bytes": sizes["memos"],
            "gc_max_bytes": self.gc_max_bytes,
            "gc_max_age": self.gc_max_age,
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"LocalStore({self.directory!r})"


__all__ = [
    "KINDS",
    "EntryInfo",
    "GCReport",
    "LocalStore",
    "TierStats",
    "default_gc_budget",
    "parse_age",
    "parse_size",
    "restricted_loads",
]
