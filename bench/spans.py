"""In-memory span recorder for the benchmark's traced runs.

The benchmark times calls into each package's *public* functions from its
own files; this recorder is where those timings go.  A span is (name,
start, end, parent, op): ``parent`` is the index of the span that was open
when this one started, ``op`` is the id of the benchmark operation it
belongs to (inherited from the parent when not given).  Spans stay in
memory and are dumped once, when the worker exits.

A layer's *self time* is its span's duration minus the durations of its
direct children, so self times of one operation's tree add up to the
duration of its root.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

_OFF = nullcontext()


class Recorder:
    """Records nested spans; ``enabled=False`` makes ``span`` a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._open: List[int] = []

    def reset(self) -> None:
        """Drop everything recorded so far (the warm-up rounds)."""
        if self._open:
            raise ValueError("cannot reset with a span open")
        self.spans.clear()

    def span(self, name: str, op: Optional[str] = None):
        return self._span(name, op) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str, op: Optional[str]):
        index = self.begin(name, time.perf_counter(), op)
        try:
            yield index
        finally:
            self.end(index, time.perf_counter())

    def begin(self, name: str, start: float, op: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        self.spans.append(
            {"name": name, "start": start, "end": None, "parent": parent, "op": op}
        )
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, end: float) -> None:
        if not self._open or self._open[-1] != index:
            raise ValueError(f"span {index} is not the innermost open span")
        self._open.pop()
        self.spans[index]["end"] = end

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out
