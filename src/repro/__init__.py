"""repro — post-tiling fusion for the memory hierarchy (MICRO 2020).

A from-scratch Python reproduction of Zhao & Di, "Optimizing the Memory
Hierarchy by Compositing Automatic Transformations on Computations and
Data".  The top-level namespace re-exports the public API; see README.md
for the tour.  The re-exports load on first use, so a process that imports
only ``repro.serve.client`` or ``repro.obs`` loads no compiler.
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__ = [
    "CompileOptions",
    "OptimizeResult",
    "Program",
    "ProgramBuilder",
    "Tensor",
    "optimize",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("OptimizeResult", "optimize"),
    ".ir": ("Program", "ProgramBuilder", "Tensor"),
    ".options": ("CompileOptions",),
})
