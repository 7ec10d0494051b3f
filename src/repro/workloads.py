"""Named-workload registry shared by the CLI and the compile server.

Both ``python -m repro <verb> <workload>`` and the ``repro.serve`` daemon
address programs by name: the name (plus a size) fully determines the
built :class:`~repro.ir.Program`, which is what lets a compile *request*
travel over a wire as a few JSON fields instead of a pickled object.
``build_workload`` is the single name-to-program mapping; the CLI wraps
its :class:`UnknownWorkloadError` in a ``SystemExit``, the server turns
it into a structured ``bad-request`` reply.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .pipelines import IMAGE_PIPELINES, conv2d, equake, mixed, polybench, resnet


class UnknownWorkloadError(ValueError):
    """Raised when a workload name matches no registered builder."""


def workload_names() -> List[str]:
    """Every name ``build_workload`` accepts, sorted."""
    return sorted(
        set(IMAGE_PIPELINES)
        | set(polybench.BUILDERS)
        | set(mixed.MIXED_BUILDERS)
        | {"conv2d", "conv_bn", "equake"}
    )


def is_workload(name: str) -> bool:
    return (
        name in IMAGE_PIPELINES
        or name in polybench.BUILDERS
        or name in mixed.MIXED_BUILDERS
        or name in ("conv2d", "conv_bn", "equake")
    )


def build_workload(name: str, size: Optional[int] = None):
    """The named workload's :class:`~repro.ir.Program`.

    ``size`` scales the iteration space; each family has its own default.
    Name and size determine the program and programs are immutable (the
    contract is in :class:`~repro.ir.Program`'s docstring), so equal
    arguments return the same object (the 64 most recently used are kept),
    which is also what lets the per-object digest memo of
    :mod:`repro.ir.fingerprint` hit.
    Raises :class:`UnknownWorkloadError` for unregistered names, every time.
    """
    return _build(name, size)


@lru_cache(maxsize=64)
def _build(name: str, size: Optional[int]):
    if name in IMAGE_PIPELINES:
        return IMAGE_PIPELINES[name].build(size or 512)
    if name == "conv2d":
        s = size or 64
        return conv2d.build({"H": s, "W": s, "KH": 3, "KW": 3})
    if name == "conv_bn":
        s = size or 32
        return resnet.build_operator_pair(s, s)
    if name == "equake":
        return equake.build(n=size or 8000)
    if name in mixed.MIXED_BUILDERS:
        return mixed.MIXED_BUILDERS[name](size or 512)
    if name in polybench.BUILDERS:
        return polybench.BUILDERS[name](size or 256)
    raise UnknownWorkloadError(
        f"unknown workload {name!r}; known workloads: "
        + ", ".join(workload_names())
    )


def default_tile_sizes(name: str) -> Optional[Tuple[int, ...]]:
    """The tile sizes a workload is compiled with when none are given."""
    if name in IMAGE_PIPELINES:
        return IMAGE_PIPELINES[name].TILE_SIZES
    if name in mixed.MIXED_BUILDERS:
        return mixed.TILE_SIZES
    if name == "equake":
        return None
    return (32, 32)


def get_workload(name: str, size: Optional[int] = None):
    """Canonical name-to-program lookup (alias of :func:`build_workload`).

    This is the spelling ``repro.api`` re-exports; benchmarks, the CLI
    and the compile server all resolve workload names through it.
    """
    return build_workload(name, size)
