"""Two-tier compile-result cache: in-process LRU over one directory.

Keys are the content-addressed fingerprints of
:mod:`repro.service.fingerprint`; values are
:class:`~repro.core.pipeline.OptimizeResult` objects.  A result entry is
three fields: a JSON header holding the value's ``work_summary`` (``[]``
when it has none) and the value's *start-up half*, each after its 4-byte
big-endian length, then the value's *candidate half*.  The start-up half
is ``(program, scheduled.groups, scheduled.deps)``, what every candidate
of one program shares (``schedule_program``'s memo hands all of them the
same objects); the candidate half is the rest of the result, pickled
with each of those objects written as a
:class:`~repro.core.pipeline.SharedRef`.  ``put`` pickles a program's
start-up half once (:class:`_StartupHalf`, kept for the last
:data:`STARTUP_HALVES` programs and reused while it holds the very same
objects), and a decode decodes it once per distinct byte string, so the
results decoded from one program's entries share one ``Program``, group
list and dependence list, as compiled ones do; every entry still stands
alone.  :meth:`CompileCache.get_summary` reads the header alone, so an
autotuner costs a warm candidate without unpickling its result; the
header is parsed with ``json`` and checked against ``ClusterWork``'s
fields, and one that does not parse is an error, an eviction and a miss,
like a blob that does not decode.  A memory-tier entry
(bounded by entry count and total encoded size) keeps the encoded bytes
and, for a value that says how to hand out an unshared copy (``fresh()``),
the instance decoded from them, at most once; a hit returns
``instance.fresh()``, so the part a caller may rewrite is never shared
(and ``get_summary`` reads that instance's ``work_summary`` once it
exists, since what an analysis filled in after the put is only there).
For an :class:`~repro.core.pipeline.OptimizeResult` that is a copy-on-read
view: a hit copies no schedule tree until its caller reads ``.tree``, which
is safe because nothing rewrites the tier's own instance.  ``put`` keeps
bytes only and never the caller's object, and a value without ``fresh()``
is decoded again on every hit.  Every decode counts
``service.cache.decode`` and unpickles only through
:func:`~repro.service.store.restricted_loads` with :data:`BLOB_GLOBALS`
(for a result: its candidate half, and its start-up half when that is
not decoded yet): a blob naming anything but the compiler's own value
classes, or a ``SharedRef`` to nothing, is an error, an eviction and a
miss, on every tier.

Below the memory tier, :class:`CompileCache` is a *policy* over one
:class:`~repro.service.store.LocalStore`: the sharded on-disk layout
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) that survives
processes.  Entries are written atomically behind a prefix that names
the schema version and the key, so a corrupted or stale file is silently
evicted on load instead of crashing the compile, and processes that share the directory share the
warm state.  The store garbage-collects by TTL and size budget
(``repro cache gc``, ``$REPRO_CACHE_MAX_BYTES`` /
``$REPRO_CACHE_MAX_AGE``, opportunistic sweeps on put) with mtime-LRU
eviction.

Next to the results the store keeps ``memos``: spilled presburger
memo-table snapshots (:func:`repro.presburger.memo.snapshot`) keyed by
*program* fingerprint, so a fresh process compiling the same program
starts with the hot ``apply_range``/``tile_footprint`` entries already
resident.  Only :func:`~repro.service.driver.cached_optimize` reads and
writes them (``get_memos``/``put_memos``), one program at a time.

Each event has one counter: the store counts what happens inside it in
its own :class:`~repro.service.store.TierStats`, :class:`CacheStats` only
what the policy decides, and :meth:`CompileCache.counters` shows both
(the store's as ``tier.local.<name>``); :meth:`CompileCache.info`
describes the entries, not the counters.

:class:`CompileCache` is the only cache there is: ``CompileOptions`` and
the daemon take one, or a spelling :func:`resolve_cache` turns into one.

A single :class:`CompileCache` instance is safe to share across threads:
the memory tier (the LRU ``OrderedDict`` and its byte accounting) and
the stats counters are guarded by an internal lock; the store is
thread-safe itself.  Disk I/O and (un)pickling happen outside the lock,
so two threads racing on an entry's first hit may both decode it; each
publishes a whole instance.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from .. import obs
from ..core.pipeline import OptimizeResult, SharedRef
from ..deps import Dependence
from ..ir import Program
from ..ir.fingerprint import SCHEMA_VERSION, fingerprint_program
from ..presburger import Set
from ..scheduler import FusionGroup, Scheduled
from .store import (
    HEAD_LEN,
    GCReport,
    LocalStore,
    default_gc_budget,
    restricted_loads,
)

#: What a result or memo blob may name: the compiler's own value classes.
#: A tensor's dtype is a string, so no entry names a numpy class; an entry
#: written when it was ``numpy.float64`` is an error, an eviction and a miss.
BLOB_GLOBALS = tuple(
    f"repro.{pkg}."
    for pkg in ("presburger", "ir", "deps", "schedule", "scheduler", "core")
)

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _field(blob: bytes, at: int) -> Tuple[bytes, int]:
    """The length-prefixed field of ``blob`` at ``at`` and where it ends."""
    (size,) = HEAD_LEN.unpack_from(blob, at)
    start = at + HEAD_LEN.size
    end = start + size
    if end > len(blob):
        raise ValueError("truncated cache entry field")
    return blob[start:end], end


def _frame(value, startup: bytes, body: bytes) -> bytes:
    """A result entry: the value's ``work_summary`` (``[]`` when it has
    none) as a length-prefixed JSON header, the length-prefixed start-up
    pickle (empty for a value that has no start-up half), then the
    candidate pickle."""
    header = json.dumps(getattr(value, "work_summary", None) or []).encode()
    return b"".join(
        (HEAD_LEN.pack(len(header)), header, HEAD_LEN.pack(len(startup)), startup, body)
    )


@functools.lru_cache(maxsize=None)
def _cluster_fields() -> frozenset:
    from ..machine import ClusterWork

    return frozenset(f.name for f in dataclasses.fields(ClusterWork))


#: What a header that does not parse raises: a short prefix, bytes that are
#: not JSON or not UTF-8, the wrong shape, nesting deeper than the parser.
_BAD_HEADER = (struct.error, ValueError, RecursionError)


def _summary(blob: bytes) -> Optional[list]:
    """The ``work_summary`` a result entry's header holds, ``None`` when it
    holds none.  ``blob`` is the entry or just its head
    (:meth:`~repro.service.store.LocalStore.get_head`).  Parsed as JSON,
    never unpickled; anything but a list of dicts keyed by exactly
    ``ClusterWork``'s fields raises."""
    summary = json.loads(_field(blob, 0)[0])
    if not isinstance(summary, list) or not all(
        isinstance(c, dict) and c.keys() == _cluster_fields() for c in summary
    ):
        raise ValueError("malformed work summary in a cache entry header")
    return summary or None


# -- the start-up half -------------------------------------------------------

_PROTOCOL = pickle.DEFAULT_PROTOCOL


class _Whole:
    """Pickles as a reference to a whole list of the start-up half."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __reduce__(self):
        return SharedRef, (self.kind,)


_WHOLE = {"groups": _Whole("groups"), "deps": _Whole("deps")}


class _StartupHalf:
    """One program's start-up half as a put writes it: ``(program,
    scheduled.groups, scheduled.deps)``, pickled once, and the pickler
    dispatch that writes a result's references to those objects.

    The dispatch maps ``Program``, ``FusionGroup``, ``Dependence`` and
    ``Set`` to :class:`~repro.core.pipeline.SharedRef` when the object is
    one of the half's (by identity: the program, a group, a dependence, a
    statement's domain, which every candidate's tree holds) and to its own
    reduction otherwise; a
    ``Scheduled`` whose lists are the half's is rebuilt around references
    to them.  The C pickler looks the dispatch up per type, so no Python
    runs for any other object."""

    __slots__ = ("objects", "blob", "refs", "dispatch")

    def __init__(self, program, groups, deps):
        self.objects = (program, groups, deps)
        self.blob = pickle.dumps(self.objects, _PROTOCOL)
        refs = {id(program): ("program", None)}
        refs.update((id(g), ("groups", i)) for i, g in enumerate(groups))
        refs.update((id(d), ("deps", i)) for i, d in enumerate(deps))
        refs.update(
            (id(s.domain), ("domains", i)) for i, s in enumerate(program.statements)
        )
        self.refs = refs
        self.dispatch = {
            Program: self._shared,
            FusionGroup: self._shared,
            Dependence: self._shared,
            Set: self._shared,
            Scheduled: self._scheduled,
        }

    def holds(self, program, groups, deps) -> bool:
        mine = self.objects
        return mine[0] is program and mine[1] is groups and mine[2] is deps

    def _shared(self, obj):
        ref = self.refs.get(id(obj))
        if ref is None:
            return obj.__reduce_ex__(_PROTOCOL)
        return SharedRef, ref

    def _scheduled(self, obj):
        if obj.groups is not self.objects[1] or obj.deps is not self.objects[2]:
            return obj.__reduce_ex__(_PROTOCOL)
        return Scheduled, tuple(
            _WHOLE.get(f.name) or getattr(obj, f.name)
            for f in dataclasses.fields(Scheduled)
        )

    def pickle(self, value) -> bytes:
        """``value``'s candidate half."""
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, _PROTOCOL)
        pickler.dispatch_table = self.dispatch
        pickler.dump(value)
        return buf.getvalue()


#: How many start-up halves a cache keeps pickled, and keeps decoded.
STARTUP_HALVES = 8


def _checked_startup(startup) -> tuple:
    if not (
        isinstance(startup, tuple)
        and len(startup) == 3
        and isinstance(startup[0], Program)
        and isinstance(startup[1], list)
        and isinstance(startup[2], list)
    ):
        raise ValueError("malformed start-up half in a cache entry")
    return startup


class _Entry:
    """A memory-tier slot: the encoded bytes and, after the first hit on a
    value with ``fresh()``, the tier's own instance decoded from them."""

    __slots__ = ("blob", "obj")

    def __init__(self, blob: bytes):
        self.blob = blob
        self.obj = None

    def hand_out(self, value):
        """What a hit that decoded (or found) ``value`` returns: the value
        itself when it has no ``fresh()``, else ``value.fresh()`` after
        keeping ``value`` as this slot's own instance.  That instance is
        never handed out, so nothing rewrites it, and the copy-on-read
        views ``fresh()`` returns may share its tree until they are read."""
        if not hasattr(value, "fresh"):
            return value
        self.obj = value
        return value.fresh()


@dataclass
class CacheStats:
    """What one :class:`CompileCache` decides, and nothing a store saw.

    ``disk_hits`` are store hits that decoded; ``errors`` are blobs the
    policy could not decode or encode, and ``disk_evictions`` the store
    entries it deleted for that reason.  The store's own counters and
    latency histograms live on its
    :class:`~repro.service.store.TierStats` (``store.stats``).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    errors: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


@dataclass
class CompileCache:
    """Content-addressed result cache: LRU memory tier over one store.

    ``cache_dir`` names the store's directory (default
    :func:`default_cache_dir`); ``persistent=False`` keeps everything in
    memory.  ``store`` is the :class:`~repro.service.store.LocalStore`
    on ``cache_dir``, ``None`` when memory-only.
    """

    cache_dir: Optional[str] = None
    max_entries: int = 128
    max_bytes: int = 256 * 1024 * 1024
    persistent: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    gc_max_bytes: Optional[int] = None
    gc_max_age: Optional[float] = None

    def __post_init__(self):
        self.cache_dir = os.fspath(self.cache_dir or default_cache_dir())
        if self.gc_max_bytes is None and self.gc_max_age is None:
            self.gc_max_bytes, self.gc_max_age = default_gc_budget()
        self.store = self._build_store()
        self._mem: "OrderedDict[str, _Entry]" = OrderedDict()
        self._mem_bytes = 0
        self._lock = threading.RLock()
        self._halves: "OrderedDict[tuple, _StartupHalf]" = OrderedDict()
        self._decoded: "OrderedDict[bytes, tuple]" = OrderedDict()

    def _build_store(self) -> Optional[LocalStore]:
        if not self.persistent:
            return None
        return LocalStore(
            self.cache_dir, gc_max_bytes=self.gc_max_bytes, gc_max_age=self.gc_max_age
        )

    # -- lookup ------------------------------------------------------------

    def _decode(self, blob: bytes, kind: str):
        """The value of an entry: for a result, its candidate pickle with
        the references to its start-up half resolved.  A start-up half is
        decoded once per distinct byte string (for the last
        :data:`STARTUP_HALVES`), so the results of one program share one
        ``Program``, one group list and one dependence list."""
        obs.count("service.cache.decode")
        if kind != "results":
            return restricted_loads(blob, BLOB_GLOBALS)
        at = _field(blob, 0)[1]
        shared, at = _field(blob, at)
        if not shared:
            return restricted_loads(blob[at:], BLOB_GLOBALS)
        with self._lock:
            startup = self._decoded.get(shared)
            if startup is not None:
                self._decoded.move_to_end(shared)
        if startup is None:
            startup = _checked_startup(restricted_loads(shared, BLOB_GLOBALS))
            with self._lock:
                startup = self._decoded.setdefault(shared, startup)
                while len(self._decoded) > STARTUP_HALVES:
                    self._decoded.popitem(last=False)
        with SharedRef.resolving(startup):
            return restricted_loads(blob[at:], BLOB_GLOBALS)

    def _decode_stored(self, kind: str, key: str, blob: bytes):
        """The value of a store hit, or ``None`` after evicting a blob
        that does not decode."""
        try:
            return self._decode(blob, kind)
        except Exception:
            self.store.delete(kind, key)
            with self._lock:
                self.stats.errors += 1
                self.stats.disk_evictions += 1
            return None

    def get(self, key: str):
        """The cached value, or ``None`` on a miss.  A value with
        ``fresh()`` is decoded once per entry and handed out as
        ``fresh()`` copies; any other value is decoded anew for every hit.
        A store hit inserts what it decoded, so it is not decoded again."""
        value = self.get_memory(key)
        if value is not None:
            return value
        if self.store is not None:
            blob = self.store.get("results", key)
            value = None if blob is None else self._decode_stored("results", key, blob)
            if value is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                    entry = self._insert_memory(key, blob)
                return entry.hand_out(value)
        with self._lock:
            self.stats.misses += 1
        return None

    def get_memory(self, key: str):
        """The memory tier's half of :meth:`get`: the value on a memory
        hit, counted as ``get`` counts it, else ``None``.  Never reads the
        store and never counts a miss."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
        if entry is None:
            return None
        try:
            value = entry.obj
            if value is None:
                value = self._decode(entry.blob, "results")
        except Exception:
            with self._lock:
                self._evict_memory(key)
                self.stats.errors += 1
            return None
        with self._lock:
            self.stats.memory_hits += 1
        return entry.hand_out(value)

    def get_summary(self, key: str) -> Optional[list]:
        """The ``work_summary`` of the cached result, read without decoding
        the result: ``None`` on a miss and for an entry that holds none.

        The memory tier answers from its own instance once that is decoded
        and from the entry's header otherwise; then the store, which reads
        the file's prefix and header alone
        (:meth:`~repro.service.store.LocalStore.get_head`).  A summary hit
        counts as :meth:`get`'s hit does (``memory_hits`` or
        ``disk_hits``); a store hit is not tiered, since its result was
        not read.  An entry with no summary and a miss count nothing, so
        the :meth:`get` that compiles or costs it next counts it.  A store
        miss is one ``exists`` check, and a header that does not parse is
        an error and an eviction, like a blob that does not decode."""
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
        if entry is not None and entry.obj is not None:
            summary = getattr(entry.obj, "work_summary", None) or None
        elif entry is not None:
            try:
                summary = _summary(entry.blob)
            except _BAD_HEADER:
                with self._lock:
                    self._evict_memory(key)
                    self.stats.errors += 1
                entry = None
        if entry is not None:
            if summary is not None:
                with self._lock:
                    self.stats.memory_hits += 1
            return summary
        if self.store is None or not self.store.contains("results", key):
            return None
        head = self.store.get_head("results", key)
        if head is None:
            return None
        try:
            summary = _summary(head)
        except _BAD_HEADER:
            self.store.delete("results", key)
            with self._lock:
                self.stats.errors += 1
                self.stats.disk_evictions += 1
            return None
        if summary is not None:
            with self._lock:
                self.stats.disk_hits += 1
        return summary

    def in_memory(self, key: str) -> bool:
        """Whether the memory tier holds ``key``; counts nothing."""
        with self._lock:
            return key in self._mem

    def _startup_half(self, result: OptimizeResult) -> _StartupHalf:
        """The start-up half of ``result``, pickled once per program: kept
        for the last few ``(program, heuristic)`` pairs, the start-up
        memo's key, and reused while it holds the very same objects."""
        scheduled = result.scheduled
        key = (fingerprint_program(result.program), scheduled.heuristic)
        objects = (result.program, scheduled.groups, scheduled.deps)
        with self._lock:
            half = self._halves.get(key)
            if half is not None and half.holds(*objects):
                self._halves.move_to_end(key)
                return half
        half = _StartupHalf(*objects)
        with self._lock:
            self._halves[key] = half
            self._halves.move_to_end(key)
            while len(self._halves) > STARTUP_HALVES:
                self._halves.popitem(last=False)
        return half

    def _encode(self, value) -> bytes:
        if isinstance(value, OptimizeResult):
            half = self._startup_half(value)
            return _frame(value, half.blob, half.pickle(value))
        return _frame(value, b"", pickle.dumps(value, _PROTOCOL))

    def put(self, key: str, value) -> None:
        try:
            blob = self._encode(value)
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self.stats.stores += 1
            self._insert_memory(key, blob)
        if self.store is not None:
            self.store.put("results", key, blob)

    def __contains__(self, key: str) -> bool:
        return self.in_memory(key) or (
            self.store is not None and self.store.contains("results", key)
        )

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
        blob = self.store.get("memos", key)
        value = None if blob is None else self._decode_stored("memos", key, blob)
        with self._lock:
            if value is None:
                self.stats.memo_misses += 1
            else:
                self.stats.memo_hits += 1
        return value

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
        self.store.put("memos", key, blob)

    # -- maintenance -------------------------------------------------------

    def clear(self, results: bool = True, memos: bool = True) -> int:
        """Drop the selected kinds (and the memory tier when ``results``);
        returns the number of store entries removed."""
        removed = 0
        if results:
            with self._lock:
                self._mem.clear()
                self._mem_bytes = 0
        if self.store is None:
            return 0
        kinds = [k for k, on in (("results", results), ("memos", memos)) if on]
        for kind in kinds:
            removed += self.store.clear(kind)
        return removed

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> GCReport:
        """Garbage-collect the store: TTL expiry plus mtime-LRU
        eviction down to the byte budget.  Defaults to the configured
        budgets (``$REPRO_CACHE_MAX_BYTES`` / ``$REPRO_CACHE_MAX_AGE``)."""
        if self.store is None:
            return GCReport(dry_run=dry_run)
        return self.store.gc(
            max_bytes=max_bytes if max_bytes is not None else self.gc_max_bytes,
            max_age=max_age if max_age is not None else self.gc_max_age,
            dry_run=dry_run,
        )

    def close(self) -> None:
        """Nothing to release: the store holds no handle between calls."""

    def counters(self) -> Dict[str, float]:
        """Every count of this cache in one flat view: the policy's own
        (:class:`CacheStats`) under their bare names, the store's as
        ``tier.local.<name>``."""
        with self._lock:
            out: Dict[str, float] = asdict(self.stats)
        if self.store is not None:
            for name, value in self.store.stats.counters().items():
                out[f"tier.local.{name}"] = value
        return out

    def info(self) -> Dict[str, object]:
        if self.store is not None:
            sinfo = self.store.info()
        else:
            sinfo = {"entries": 0, "bytes": 0, "memo_entries": 0, "memo_bytes": 0}
        with self._lock:
            memory_entries = len(self._mem)
            memory_bytes = self._mem_bytes
        return {
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
        }


_default: Optional[Tuple[str, CompileCache]] = None


def default_cache() -> CompileCache:
    """The process-wide cache, rebuilt if ``$REPRO_CACHE_DIR`` changes."""
    global _default
    directory = default_cache_dir()
    if _default is None or _default[0] != directory:
        _default = (directory, CompileCache(cache_dir=directory))
    return _default[1]


def reset_default_cache() -> None:
    """Forget the process-wide cache instance (tests, env changes)."""
    global _default
    _default = None


def _named_dir(name: str) -> str:
    return os.path.join(default_cache_dir(), "named", name)


def _spec_dir(path: str) -> str:
    """A directory from a cache spelling: bare names are namespaced under
    ``<default_cache_dir()>/named/``, paths pass through."""
    if "://" in path or path.startswith("tiered:"):
        raise ValueError(
            f"cache spec {path!r} names no directory: a cache is one "
            "directory, shared by giving every process the same one"
        )
    if path == "default":
        return default_cache_dir()
    if os.sep not in path and "/" not in path and not path.startswith("~"):
        return _named_dir(path)
    return os.path.expanduser(path)


def resolve_cache(spec) -> CompileCache:
    """A :class:`CompileCache` from a string or path spelling.

    * ``"default"`` — the process-wide :func:`default_cache`;
    * a bare name (no path separator, no ``~``) — a named cache under
      ``<default_cache_dir()>/named/<name>`` so ad-hoc caches never
      collide with the default cache's own entries;
    * anything else — an explicit directory path (``~`` expanded).  A
      URL (``://``) or a ``tiered:`` spelling is a ``ValueError``.

    :class:`CompileCache` instances pass through unchanged; anything that
    is none of these is a ``TypeError``.
    """
    if isinstance(spec, CompileCache):
        return spec
    if not isinstance(spec, (str, os.PathLike)):
        raise TypeError(
            f"cache must be a CompileCache, a name or a path, got {spec!r}"
        )
    path = os.fspath(spec)
    if path == "default":
        return default_cache()
    return CompileCache(cache_dir=_spec_dir(path))
