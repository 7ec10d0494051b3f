"""Structured event log for long-lived daemons.

:class:`EventLog` appends ``repro-events/1`` JSONL lifecycle records
(``type: "event"``, a level, and the request's trace id when the client
traced it, so a stitched file is matched to its daemon log by ``grep``).
Disk usage is bounded by size-triggered rotation (current file + one
``.1`` backup).  A record that cannot be written — a full disk, a
rotation that could not reopen the file — is counted in ``write_errors``
and never raised: the log must not take a request or the daemon down.

Thread-safe; the serve daemon emits from its event loop and its executor
threads alike.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

#: Schema tag of every event-log record.
JSONL_SCHEMA = "repro-events/1"

#: Accepted event severities, lowest to highest.
LEVELS = ("debug", "info", "warn", "error")

#: Default rotation threshold for the on-disk log.
MAX_LOG_BYTES = 8 << 20


class EventLog:
    """Bounded structured event log (JSONL on disk).

    ``path=None`` keeps no record (tests, embedded use).  Every record
    carries ``type``, ``at`` (unix seconds), ``level`` and ``event``, plus
    the request's ``trace_id`` when it has one.
    """

    def __init__(self, path: Optional[str] = None, max_bytes: int = MAX_LOG_BYTES):
        self.path = path
        self.max_bytes = max_bytes
        self.written = 0
        self.rotations = 0
        self.write_errors = 0
        self._lock = threading.Lock()
        self._fh = None
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._fh = self._open()

    def _open(self):
        # Unbuffered: a record is one write, so a failed one leaves no
        # residue for a later flush or ``close`` to fail on again.
        return open(self.path, "ab", buffering=0)

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
            if self._fh is None:
                return
            try:
                self._fh.write((json.dumps(rec, sort_keys=True) + "\n").encode())
                self.written += 1
                if self._fh.tell() >= self.max_bytes:
                    self._rotate()
            except (OSError, ValueError):
                self.write_errors += 1

    def _rotate(self) -> None:
        """Roll ``path`` to ``path.1`` (lock held by caller)."""
        self._fh.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:
            pass
        self._fh = self._open()
        self.rotations += 1

    # -- views ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "written": self.written,
                "rotations": self.rotations,
                "write_errors": self.write_errors,
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


__all__ = [
    "LEVELS",
    "MAX_LOG_BYTES",
    "EventLog",
    "validate_event_log",
]
