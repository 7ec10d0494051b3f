"""repro — post-tiling fusion for the memory hierarchy (MICRO 2020).

A from-scratch Python reproduction of Zhao & Di, "Optimizing the Memory
Hierarchy by Compositing Automatic Transformations on Computations and
Data".  The top-level namespace re-exports the public API; see README.md
for the tour.
"""

from .core import OptimizeResult, optimize
from .ir import Program, ProgramBuilder, Tensor
from .options import CompileOptions

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
