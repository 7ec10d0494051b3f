"""Lazy package re-exports (PEP 562).

A package that re-exports names from its modules binds the pair this
returns as its own ``__getattr__`` and ``__dir__``: a name's module is
imported the first time the name is read, so importing the package costs
only the package.  ``import repro.serve.client`` therefore loads neither
the compiler nor numpy, though ``repro`` re-exports ``optimize``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, where ``modules`` maps a
    relative module name (``".interp"``) to the names it defines.  A name
    once read is bound in the package, so it is resolved only once."""
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
