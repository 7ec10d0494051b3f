"""Structured event log and telemetry ring buffer for long-lived daemons.

Two bounded-memory companions to the span layer:

* :class:`EventLog` — append-only ``repro-events/1`` JSONL lifecycle
  records (``type: "event"``, a level, and the request's trace id when
  the client traced it, so a stitched file is matched to its daemon log
  by ``grep``).  Disk usage is bounded by size-triggered rotation
  (current file + one ``.1`` backup); the in-memory tail keeps the newest
  ``cap`` records and counts every one it evicts in ``dropped``, like
  ``MAX_EVENTS``/``dropped_events`` — so a flood of events degrades
  visibility, never memory.
* :class:`SampleRing` — fixed-capacity ring of periodic metrics samples
  with monotonically increasing sequence numbers, the backing store of
  the serve daemon's ``watch`` verb: clients poll ``since(seq)`` and get
  only new samples plus a count of any they missed.

Both are thread-safe; the serve daemon emits from its event loop and its
executor threads alike.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .export import JSONL_SCHEMA

#: Accepted event severities, lowest to highest.
LEVELS = ("debug", "info", "warn", "error")

#: Default cap on the in-memory event tail (mirrors ``trace.MAX_EVENTS``
#: in spirit; events are far rarer than spans so the cap is smaller).
MAX_LOG_EVENTS = 10_000

#: Default rotation threshold for the on-disk log.
MAX_LOG_BYTES = 8 << 20


class EventLog:
    """Bounded structured event log (JSONL on disk, capped tail in memory).

    ``path=None`` keeps the log memory-only (tests, embedded use).  Every
    record carries ``type``, ``at`` (unix seconds), ``level`` and
    ``event``, plus the request's ``trace_id`` when it has one.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_bytes: int = MAX_LOG_BYTES,
        cap: int = MAX_LOG_EVENTS,
    ):
        self.path = path
        self.max_bytes = max_bytes
        self.cap = cap
        self.dropped = 0
        self.written = 0
        self.rotations = 0
        self._recent: Deque[Dict[str, object]] = deque(maxlen=cap)
        self._lock = threading.Lock()
        self._fh = None
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._fh = open(path, "a")

    # -- recording -----------------------------------------------------------

    def emit(
        self,
        event: str,
        level: str = "info",
        trace_id: Optional[str] = None,
        **fields,
    ) -> None:
        """Append one lifecycle event record (``trace_id`` only if set)."""
        if level not in LEVELS:
            raise ValueError(f"unknown event level {level!r}; expected one of {LEVELS}")
        rec: Dict[str, object] = {
            "type": "event",
            "schema": JSONL_SCHEMA,
            "at": time.time(),
            "level": level,
            "event": event,
        }
        if trace_id is not None:
            rec["trace_id"] = trace_id
        rec.update(fields)
        with self._lock:
            if len(self._recent) == self.cap:
                self.dropped += 1  # the deque evicts its oldest record
            self._recent.append(rec)
            if self._fh is not None:
                self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
                self._fh.flush()
                self.written += 1
                try:
                    if self._fh.tell() >= self.max_bytes:
                        self._rotate()
                except (OSError, ValueError):
                    pass

    def _rotate(self) -> None:
        """Roll ``path`` to ``path.1`` (lock held by caller)."""
        self._fh.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:
            pass
        self._fh = open(self.path, "a")
        self.rotations += 1

    # -- views ---------------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The newest buffered records, oldest first."""
        with self._lock:
            out = list(self._recent)
        return out if limit is None else out[-limit:]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "buffered": len(self._recent),
                "dropped": self.dropped,
                "written": self.written,
                "rotations": self.rotations,
            }

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def validate_event_log(lines) -> List[str]:
    """Errors in an event-log JSONL stream (empty list = valid)."""
    errors: List[str] = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {i}: not JSON ({exc})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"line {i}: expected object")
            continue
        if rec.get("type") != "event":
            errors.append(f"line {i}: unknown record type {rec.get('type')!r}")
            continue
        if not isinstance(rec.get("at"), (int, float)):
            errors.append(f"line {i}: missing numeric 'at'")
        if rec.get("level") not in LEVELS:
            errors.append(f"line {i}: bad level {rec.get('level')!r}")
        if not isinstance(rec.get("event"), str):
            errors.append(f"line {i}: missing event name")
    return errors


class SampleRing:
    """Fixed-capacity ring of timestamped samples with sequence numbers.

    ``add`` assigns each sample the next sequence number; ``since(seq)``
    returns every retained sample newer than ``seq`` plus how many the
    caller missed because the ring wrapped — the same drop-visibly
    contract as the span cap.
    """

    def __init__(self, capacity: int = 300):
        if capacity <= 0:
            raise ValueError("SampleRing capacity must be positive")
        self.capacity = capacity
        self._samples: List[Tuple[int, Dict[str, object]]] = []
        self._next_seq = 1
        self._lock = threading.Lock()

    def add(self, sample: Dict[str, object]) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._samples.append((seq, sample))
            if len(self._samples) > self.capacity:
                del self._samples[: len(self._samples) - self.capacity]
            return seq

    def since(self, seq: int = 0) -> Tuple[List[Dict[str, object]], int]:
        """(samples newer than ``seq``, count of missed/evicted samples)."""
        with self._lock:
            fresh = [
                dict(s, seq=sq) for sq, s in self._samples if sq > seq
            ]
            oldest = self._samples[0][0] if self._samples else self._next_seq
            missed = max(0, oldest - seq - 1) if seq else 0
            return fresh, missed

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


__all__ = [
    "LEVELS",
    "MAX_LOG_BYTES",
    "MAX_LOG_EVENTS",
    "EventLog",
    "SampleRing",
    "validate_event_log",
]
