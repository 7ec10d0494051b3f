"""Tensors: named multi-dimensional arrays with possibly-symbolic shapes.

A :class:`Tensor` is pure description: its dtype is a name numpy
understands (``"float64"`` by default), and the compiler reads no more of
it than that.  Only :class:`TensorStore`, which the interpreter and the C
backend fill, holds arrays, so numpy is imported where one is allocated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple, Union

from ..presburger import LinExpr
from .expr import Load

if TYPE_CHECKING:
    import numpy as np

ShapeEntry = Union[int, str, LinExpr]


class Tensor:
    """A named array.  Shape entries are ints, param names or affine exprs.

    Indexing a tensor with affine expressions builds a :class:`Load` node::

        A = Tensor("A", ("H", "W"))
        A[h + kh, w + kw]       # -> Load("A", (h+kh, w+kw))
    """

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Sequence[ShapeEntry], dtype="float64"):
        self.name = name
        self.shape = tuple(LinExpr.coerce(s) for s in shape)
        self.dtype = dtype

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def concrete_shape(self, params: Mapping[str, int]) -> Tuple[int, ...]:
        out = []
        for s in self.shape:
            val = s.eval(params)
            if val <= 0:
                raise ValueError(f"tensor {self.name} has extent {val} <= 0")
            out.append(val)
        return tuple(out)

    def size_elems(self, params: Mapping[str, int]) -> int:
        total = 1
        for e in self.concrete_shape(params):
            total *= e
        return total

    def __getitem__(self, indices) -> Load:
        if not isinstance(indices, tuple):
            indices = (indices,)
        if len(indices) != self.ndim:
            raise IndexError(
                f"tensor {self.name} has {self.ndim} dims, got {len(indices)} indices"
            )
        return Load(self.name, [LinExpr.coerce(i) for i in indices])

    def __repr__(self):
        return f"Tensor({self.name}, shape=({', '.join(str(s) for s in self.shape)}))"


class _ZeroedOnDemand(dict):
    """``name -> array``; an array is allocated, zeroed, when first asked for."""

    def __init__(self, shapes: Mapping[str, Tuple[int, ...]], tensors: Mapping[str, Tensor]):
        super().__init__()
        self.shapes = shapes
        self.tensors = tensors

    def __missing__(self, name: str) -> np.ndarray:
        import numpy as np

        array = self[name] = np.zeros(self.shapes[name], dtype=self.tensors[name].dtype)
        return array


class TensorStore:
    """Concrete storage for a set of tensors during interpretation.

    Every tensor starts zeroed, but its array exists only once somebody
    reads or writes it: ``set_input`` replaces an array, so a store being
    filled never holds the zeros as well, and the C backend asks a store
    for the live-in tensors alone.
    """

    def __init__(self, tensors: Mapping[str, Tensor], params: Mapping[str, int]):
        self.params = dict(params)
        self.tensors = dict(tensors)
        self.shapes = {name: t.concrete_shape(params) for name, t in tensors.items()}
        self.arrays: Dict[str, np.ndarray] = _ZeroedOnDemand(self.shapes, self.tensors)

    def read(self, tensor: str, idx: Tuple[int, ...]) -> float:
        return self.arrays[tensor][idx]

    def write(self, tensor: str, idx: Tuple[int, ...], value: float) -> None:
        self.arrays[tensor][idx] = value

    def accumulate(self, tensor: str, idx: Tuple[int, ...], value: float) -> None:
        self.arrays[tensor][idx] += value

    def set_input(self, tensor: str, array: np.ndarray) -> None:
        expected = self.shapes[tensor]
        if tuple(array.shape) != expected:
            raise ValueError(
                f"input {tensor} has shape {array.shape}, expected {expected}"
            )
        self.arrays[tensor] = array.astype(self.tensors[tensor].dtype, copy=True)

    def __getitem__(self, tensor: str) -> np.ndarray:
        return self.arrays[tensor]
