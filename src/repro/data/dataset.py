"""The autotune candidate store: append-only JSONL under the cache dir.

One record per evaluated tile-size candidate::

    {"schema": "repro-autotune-dataset/1",
     "fingerprint": "<sha256 of the program structure>",
     "program": "unsharp_mask", "target": "cpu", "startup": "smartfuse",
     "threads": 32, "dims": 2, "tile_sizes": [32, 128],
     "cost": 0.0123,                  # exact analytical cost, seconds
     "features": {...},               # cheap ranking features (no compile)
     "work": {...},                   # cost-model internals (footprints,
     "source": "autotune"}            #   traffic, reuse) for the candidate

Records are validated on append *and* on read (a corrupt line is counted
and skipped, never fatal), and serialized with sorted keys so the store
is byte-deterministic across processes and ``PYTHONHASHSEED`` values —
the same property the compile cache keys rely on.

``$REPRO_DATASET`` opts collection in globally: ``1``/``true`` appends to
the default store (``<cache dir>/datasets/autotune.jsonl``), any other
non-empty value is used as an explicit path.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .. import obs

#: Bump on any change to the record layout.
DATASET_SCHEMA = "repro-autotune-dataset/1"

#: Opt-in switch for ambient collection (autotune sweeps, batch compiles).
ENV_DATASET = "REPRO_DATASET"

_NUM = (int, float)

#: Serializes concurrent appends from worker threads within one process;
#: cross-process appends rely on O_APPEND line-sized writes.
_append_lock = threading.Lock()


def default_dataset_path() -> str:
    from ..service.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "datasets", "autotune.jsonl")


def collection_enabled() -> bool:
    """Whether ambient dataset collection is switched on via the env."""
    spec = os.environ.get(ENV_DATASET, "")
    return bool(spec) and spec.lower() not in ("0", "false", "no")


def dataset_from_env() -> Optional["Dataset"]:
    """The ambient collection target, or ``None`` when collection is off."""
    if not collection_enabled():
        return None
    spec = os.environ.get(ENV_DATASET, "")
    if spec.lower() in ("1", "true", "yes"):
        return Dataset()
    return Dataset(spec)


def resolve_dataset(spec) -> Optional["Dataset"]:
    """Normalize a ``collect=`` spelling to a :class:`Dataset` (or None).

    ``None`` defers to ``$REPRO_DATASET``; ``False`` disables collection;
    ``True`` uses the default store; a path opens that store; a
    :class:`Dataset` passes through.
    """
    if spec is None:
        return dataset_from_env()
    if spec is False:
        return None
    if spec is True:
        return Dataset()
    if isinstance(spec, Dataset):
        return spec
    return Dataset(os.fspath(spec))


def make_record(
    fingerprint: str,
    tile_sizes: Sequence[int],
    cost: float,
    features: Mapping[str, float],
    program: str = "",
    target: str = "cpu",
    startup: str = "smartfuse",
    threads: int = 32,
    dims: Optional[int] = None,
    work: Optional[Mapping[str, float]] = None,
    source: str = "autotune",
) -> Dict[str, object]:
    """One schema-complete candidate record (floats coerced, keys fixed)."""
    record: Dict[str, object] = {
        "schema": DATASET_SCHEMA,
        "fingerprint": fingerprint,
        "program": program,
        "target": target,
        "startup": startup,
        "threads": int(threads),
        "dims": int(dims if dims is not None else len(tile_sizes)),
        "tile_sizes": [int(s) for s in tile_sizes],
        "cost": float(cost),
        "features": {k: float(v) for k, v in sorted(features.items())},
        "source": source,
    }
    if work is not None:
        record["work"] = {k: float(v) for k, v in sorted(work.items())}
    return record


def _is_finite_number(v) -> bool:
    return isinstance(v, _NUM) and not isinstance(v, bool) and math.isfinite(v)


def validate_record(obj: object) -> List[str]:
    """Errors in one candidate record (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(obj, Mapping):
        return ["record is not an object"]
    if obj.get("schema") != DATASET_SCHEMA:
        errors.append(
            f"schema is {obj.get('schema')!r}, expected {DATASET_SCHEMA!r}"
        )
    for key in ("fingerprint", "target", "startup", "source", "program"):
        v = obj.get(key)
        if not isinstance(v, str):
            errors.append(f"{key} must be a string, got {v!r}")
        elif key == "fingerprint" and not v:
            errors.append("fingerprint must be non-empty")
    for key in ("threads", "dims"):
        v = obj.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            errors.append(f"{key} must be a positive int, got {v!r}")
    sizes = obj.get("tile_sizes")
    if (
        not isinstance(sizes, list)
        or not sizes
        or any(not isinstance(s, int) or isinstance(s, bool) or s <= 0 for s in sizes)
    ):
        errors.append(f"tile_sizes must be a non-empty list of positive ints, got {sizes!r}")
    cost = obj.get("cost")
    if not _is_finite_number(cost) or cost <= 0:
        errors.append(f"cost must be a finite positive number, got {cost!r}")
    feats = obj.get("features")
    if not isinstance(feats, Mapping) or not feats:
        errors.append("features must be a non-empty object")
    else:
        for k, v in feats.items():
            if not isinstance(k, str) or not _is_finite_number(v):
                errors.append(f"features[{k!r}]: bad value {v!r}")
    work = obj.get("work")
    if work is not None:
        if not isinstance(work, Mapping):
            errors.append("work must be an object when present")
        else:
            for k, v in work.items():
                if not isinstance(k, str) or not _is_finite_number(v):
                    errors.append(f"work[{k!r}]: bad value {v!r}")
    return errors


def _dump(record: Mapping[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class Dataset:
    """One append-only JSONL candidate store.

    Thread-safe within a process; concurrent processes interleave whole
    lines (each batch is one ``write`` on an ``O_APPEND`` descriptor).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = os.fspath(path) if path is not None else default_dataset_path()

    # -- writing -----------------------------------------------------------

    def append(self, records: Iterable[Mapping[str, object]]) -> int:
        """Validate and append ``records``; returns how many were written.

        Invalid records raise ``ValueError`` (callers construct records
        through :func:`make_record`, so an invalid one is a bug, not data).
        """
        lines: List[str] = []
        for record in records:
            errors = validate_record(record)
            if errors:
                raise ValueError(
                    f"invalid dataset record: {'; '.join(errors)}"
                )
            lines.append(_dump(record))
        if not lines:
            return 0
        payload = "\n".join(lines) + "\n"
        with _append_lock:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(payload)
        obs.count("data.records_appended", len(lines))
        return len(lines)

    # -- reading -----------------------------------------------------------

    def _scan(self) -> Iterator[Tuple[Optional[Dict[str, object]], int]]:
        """Yield ``(record, line_no)`` pairs; invalid lines yield ``None``."""
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as f:
            for i, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    yield None, i
                    continue
                yield (obj if not validate_record(obj) else None), i

    def records(self) -> Iterator[Dict[str, object]]:
        """Every valid record, in append order; corrupt lines are skipped."""
        for record, _ in self._scan():
            if record is not None:
                yield record

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return self.records()

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    # -- maintenance -------------------------------------------------------

    def info(self) -> Dict[str, object]:
        """Counts per program/target plus size and corruption tallies."""
        n = invalid = 0
        by_program: Dict[str, int] = {}
        by_target: Dict[str, int] = {}
        fingerprints = set()
        for record, _ in self._scan():
            if record is None:
                invalid += 1
                continue
            n += 1
            name = record.get("program") or record.get("fingerprint", "")[:12]
            by_program[name] = by_program.get(name, 0) + 1
            by_target[record["target"]] = by_target.get(record["target"], 0) + 1
            fingerprints.add(record["fingerprint"])
        return {
            "path": self.path,
            "schema": DATASET_SCHEMA,
            "records": n,
            "invalid_lines": invalid,
            "bytes": os.path.getsize(self.path) if os.path.exists(self.path) else 0,
            "programs": len(fingerprints),
            "by_program": dict(sorted(by_program.items())),
            "by_target": dict(sorted(by_target.items())),
        }

    def export(self, out, limit: Optional[int] = None) -> int:
        """Write the valid records to a file object as JSONL; returns the
        number exported.  Re-serializes (sorted keys), so an exported
        store is canonical even if the source interleaved writers."""
        n = 0
        for record in self.records():
            if limit is not None and n >= limit:
                break
            out.write(_dump(record) + "\n")
            n += 1
        return n

    def clear(self) -> int:
        """Delete the store; returns the number of records removed."""
        n = len(self)
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
        return n
