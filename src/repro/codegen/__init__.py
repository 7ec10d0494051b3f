"""``repro.codegen`` — executable and printing backends for schedule trees.

:mod:`.nest` scans a schedule tree once into an immutable loop nest, in one
of two configurations (*display*: symbolic parameters; *executable*:
parameters fixed), and the rest reads that nest: :mod:`.printer` renders the
display one; :mod:`.cbackend` renders the executable one as compilable C,
:mod:`.interp` flattens it into streams and runs them, :mod:`.promotion`
finds its scratch sites.  :mod:`.gpu_mapping` and :mod:`.loop_order` (for
the C backend only) rewrite trees before the scan.
"""

from .interp import (
    ExecutionError,
    Stream,
    build_streams,
    execute_naive,
    execute_tree,
    make_store,
    ordered_events,
    run_program,
)
from .printer import print_tree, render_linexpr
from .promotion import PromotedBuffer, promoted_buffers

__all__ = [
    "ExecutionError",
    "PromotedBuffer",
    "Stream",
    "build_streams",
    "execute_naive",
    "execute_tree",
    "make_store",
    "ordered_events",
    "print_tree",
    "promoted_buffers",
    "render_linexpr",
    "run_program",
]
