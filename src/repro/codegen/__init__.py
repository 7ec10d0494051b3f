"""``repro.codegen`` — executable and printing backends for schedule trees.

:mod:`.nest` scans a schedule tree once into an immutable loop nest, in one
of two configurations (*display*: symbolic parameters; *executable*:
parameters fixed), and the rest reads that nest: :mod:`.printer` renders the
display one; :mod:`.cbackend` renders the executable one as compilable C,
:mod:`.interp` flattens it into streams and runs them, :mod:`.promotion`
finds its scratch sites.  :mod:`.gpu_mapping` and :mod:`.loop_order` (for
the C backend only) rewrite trees before the scan.

The re-exports load lazily, so the machine model, which reaches
:mod:`.promotion`, loads no interpreter.  numpy is imported only where
arrays are made: :func:`make_store`, the store it fills and :mod:`.cbackend`.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".interp": (
        "ExecutionError", "Stream", "build_streams", "execute_naive",
        "execute_tree", "make_store", "ordered_events", "run_program",
    ),
    ".printer": ("print_tree", "render_linexpr"),
    ".promotion": ("PromotedBuffer", "promoted_buffers"),
})
