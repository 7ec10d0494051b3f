"""Wire protocol of the compile server: newline-delimited JSON-RPC.

One request or response per line, UTF-8 JSON, no framing beyond ``\\n``
(which ``json.dumps`` never emits).  Every message carries the protocol
tag :data:`PROTOCOL` so either side can reject a stranger speaking on the
socket, and an ``id`` echoed verbatim in the reply so clients can
pipeline requests over one connection and match replies out of order.

Requests::

    {"proto": "repro-serve/1", "id": 7, "method": "compile",
     "params": {"workload": "harris", "size": 512, "target": "cpu",
                "tile_sizes": [32, 256], "startup": "smartfuse"}}

Responses::

    {"proto": "repro-serve/1", "id": 7, "ok": true,  "result": {...}}
    {"proto": "repro-serve/1", "id": 7, "ok": false,
     "error": {"code": "compile-error", "message": "..."}}

Validation is hand-rolled (error lists, same style as
:mod:`repro.obs.schema`) and runs on *both* ends: the server validates
every request before touching the compiler, the client validates every
response before trusting it.  What each method's params may be is one
table, :data:`PARAMS`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Optional, Union

#: Protocol tag carried by every message; bump the suffix on any
#: incompatible change to the message or params layout.
PROTOCOL = "repro-serve/1"

#: Methods the server accepts.
METHODS = (
    "compile",
    "autotune",
    "stats",
    "health",
    "shutdown",
)

#: Structured error codes a response may carry.
ERROR_CODES = (
    "bad-request",      # malformed message or invalid params
    "unknown-method",   # method not in METHODS
    "compile-error",    # the compile itself failed (infeasible tiling...)
    "autotune-error",   # no feasible candidate, bad grid
    "timeout",          # per-request timeout expired server-side
    "overloaded",       # per-client concurrency limit exceeded
    "draining",         # server is shutting down, not accepting work
    "internal",         # unexpected server-side exception
)

#: Hard cap on one message line; a compile request is a few hundred bytes,
#: a stats reply a few hundred KB — anything near this is abuse.
MAX_LINE_BYTES = 8 * 1024 * 1024

TARGETS = ("cpu", "gpu", "npu")


class ProtocolError(ValueError):
    """A message violated the repro-serve/1 framing or schema."""


# -- params ----------------------------------------------------------------


def _must(ok, what: str):
    """A checker: ``check(name, value)`` -> error list with one
    ``<name> must be <what>`` line when ``ok(value)`` is false."""

    def check(name: str, value: object) -> List[str]:
        return [] if ok(value) else [f"{name} must be {what}, got {value!r}"]

    return check


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _is_array_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(ok, v))


NAME = _must(lambda v: isinstance(v, str) and bool(v), "a non-empty string")
STR = _must(lambda v: isinstance(v, str), "a string")
POS_INT = _must(_is_int, "an int >= 1")
POS_INTS = _must(_is_array_of(_is_int), "a non-empty array of positive ints")
TARGET = _must(lambda v: v in TARGETS, f"one of {TARGETS}")
TRACE_ID = _must(
    lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{32}", v) is not None,
    "32 lowercase hex chars",
)

#: Default marker of a param the request must carry.
REQUIRED = object()

_WORK = {
    "workload": (NAME, REQUIRED),
    "size": (POS_INT, None),
    "startup": (STR, "smartfuse"),
}

#: method -> param name -> (checker, default): the one description of what
#: each method accepts.  :func:`validate_params` runs the checkers, the
#: server fills absent/``null`` params with the defaults, and
#: ``ServeClient.work`` and the ``repro client`` flags are generated from
#: the rows of the work verbs (``compile`` / ``autotune``) — a new param
#: is one new entry here.  A param outside the method's row (every param,
#: for a method without one) is a ``bad-request``.
PARAMS: Dict[str, Dict[str, tuple]] = {
    "compile": {
        **_WORK,
        "target": (TARGET, "cpu"),
        "tile_sizes": (POS_INTS, None),  # None: the workload's default tiles
        # The client's trace id: the daemon returns its spans in the reply.
        "trace": (TRACE_ID, None),
    },
    "autotune": {
        **_WORK,
        "target": (TARGET, "cpu"),
        "threads": (POS_INT, 32),
        "dims": (POS_INT, 2),
        "candidates": (POS_INTS, (8, 16, 32, 64, 128)),
    },
}


# -- construction ----------------------------------------------------------


def request(
    method: str, params: Optional[Mapping] = None, id: Union[int, str] = 0
) -> Dict[str, object]:
    return {
        "proto": PROTOCOL,
        "id": id,
        "method": method,
        "params": dict(params or {}),
    }


def ok_response(id: Union[int, str], result: Mapping) -> Dict[str, object]:
    return {"proto": PROTOCOL, "id": id, "ok": True, "result": dict(result)}


def error_response(
    id: Union[int, str, None], code: str, message: str
) -> Dict[str, object]:
    assert code in ERROR_CODES, code
    return {
        "proto": PROTOCOL,
        "id": id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# -- framing ---------------------------------------------------------------


def encode(message: Mapping) -> bytes:
    """One message as a newline-terminated UTF-8 JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode(line: Union[bytes, str]) -> Dict[str, object]:
    """Parse one line into a message dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"not UTF-8: {exc}")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"not JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("message is not a JSON object")
    return obj


# -- validation ------------------------------------------------------------


def _check_envelope(obj: object) -> List[str]:
    if not isinstance(obj, Mapping):
        return ["message is not an object"]
    errors = []
    if obj.get("proto") != PROTOCOL:
        errors.append(f"proto is {obj.get('proto')!r}, expected {PROTOCOL!r}")
    if not isinstance(obj.get("id"), (int, str)) or isinstance(
        obj.get("id"), bool
    ):
        errors.append(f"id must be an int or string, got {obj.get('id')!r}")
    return errors


def validate_request(obj: object) -> List[str]:
    """Errors in a request message (empty list = valid)."""
    errors = _check_envelope(obj)
    if not isinstance(obj, Mapping):
        return errors
    method = obj.get("method")
    if not isinstance(method, str):
        errors.append(f"method must be a string, got {method!r}")
        return errors
    params = obj.get("params", {})
    if not isinstance(params, Mapping):
        errors.append("params must be an object")
        return errors
    if method in METHODS:
        errors.extend(validate_params(method, params))
    return errors


def validate_params(method: str, params: Mapping) -> List[str]:
    """Errors in one method's params (empty list = valid).

    A name outside the method's row is an error; absent and ``null`` are
    the same thing for an optional param."""
    row = PARAMS.get(method, {})
    errors = [f"{method} takes no param {name!r}" for name in sorted(set(params) - set(row))]
    for name, (check, default) in row.items():
        value = params.get(name)
        if value is not None or default is REQUIRED:
            errors.extend(check(name, value))
    return errors


def fill_defaults(method: str, params: Mapping) -> Dict[str, object]:
    """Every param of ``method``'s row, absent and ``null`` ones replaced
    by their default (a validated request has no ``REQUIRED`` left)."""
    return {
        name: default if params.get(name) is None else params[name]
        for name, (_check, default) in PARAMS[method].items()
    }


def validate_response(obj: object) -> List[str]:
    """Errors in a response message (empty list = valid)."""
    errors = _check_envelope(obj)
    if not isinstance(obj, Mapping):
        return errors
    ok = obj.get("ok")
    if not isinstance(ok, bool):
        errors.append(f"ok must be a bool, got {ok!r}")
        return errors
    if ok:
        if not isinstance(obj.get("result"), Mapping):
            errors.append("ok response must carry a result object")
    else:
        err = obj.get("error")
        if not isinstance(err, Mapping):
            errors.append("error response must carry an error object")
        else:
            if err.get("code") not in ERROR_CODES:
                errors.append(f"unknown error code {err.get('code')!r}")
            if not isinstance(err.get("message"), str):
                errors.append("error message must be a string")
    return errors
