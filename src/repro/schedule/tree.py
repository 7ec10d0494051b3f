"""Schedule trees (Grosser, Verdoolaege & Cohen, TOPLAS 2015).

The nodes implemented here are the ones the paper uses:

* **domain** — the universe of statement instances;
* **sequence** — explicit ordering of filtered children;
* **filter** — restriction to a subset of statement instances;
* **band** — a piecewise multi-dimensional affine schedule with
  ``permutable`` and ``coincident`` attributes;
* **mark** — a string attached to the tree (``"skipped"``, ``"kernel"``,
  ``"thread"``, ...);
* **extension** — an affine relation from outer schedule dimensions to
  *additional* statement instances, the device by which post-tiling fusion
  splices an intermediate computation space underneath the tile band of a
  live-out space (Section IV of the paper).

Every node is mutable (trees are built up and rewritten by the optimizer)
but cheap to deep-copy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..presburger import LinExpr, UnionMap, UnionSet


class Node:
    """Base class of schedule tree nodes with a single child."""

    def __init__(self, child: Optional["Node"] = None):
        self.child = child

    @property
    def children(self) -> List["Node"]:
        return [] if self.child is None else [self.child]

    def copy(self) -> "Node":
        raise NotImplementedError

    def walk(self) -> Iterator["Node"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def _label(self) -> str:
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self._label()]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self):
        return self._label()


class DomainNode(Node):
    """Root node holding all statement instances."""

    def __init__(self, domain: UnionSet, child: Optional[Node] = None):
        super().__init__(child)
        self.domain = domain

    def copy(self) -> "DomainNode":
        return DomainNode(self.domain, self.child.copy() if self.child else None)

    def _label(self) -> str:
        return f"domain: {{{', '.join(self.domain.names())}}}"


class SequenceNode(Node):
    """Ordered composition; every child must be a FilterNode."""

    def __init__(self, filters: Sequence["FilterNode"] = ()):
        super().__init__(None)
        self.filters: List[FilterNode] = list(filters)

    @property
    def children(self) -> List["Node"]:
        return list(self.filters)

    def copy(self) -> "SequenceNode":
        return SequenceNode([f.copy() for f in self.filters])

    def insert(self, index: int, filt: "FilterNode") -> None:
        self.filters.insert(index, filt)

    def _label(self) -> str:
        return "sequence"


class FilterNode(Node):
    """Restriction to the instances of a set of statements."""

    def __init__(self, statements: Sequence[str], child: Optional[Node] = None):
        super().__init__(child)
        self.statements: Tuple[str, ...] = tuple(statements)

    def copy(self) -> "FilterNode":
        return FilterNode(self.statements, self.child.copy() if self.child else None)

    def _label(self) -> str:
        return f"filter: {{{', '.join(self.statements)}}}"


class BandNode(Node):
    """A partial schedule: per-statement rows of affine expressions.

    ``schedules[stmt]`` is a tuple of :class:`LinExpr` over the statement's
    iterator names (one entry per band dimension).  ``dim_names`` gives the
    band's output dimensions stable names so that extension relations can
    refer to them.  ``permutable`` marks tilability; ``coincident[i]`` marks
    parallelism of band dimension ``i`` (1 in the paper's notation).
    """

    def __init__(
        self,
        schedules: Mapping[str, Sequence[LinExpr]],
        dim_names: Sequence[str],
        permutable: bool = False,
        coincident: Optional[Sequence[bool]] = None,
        child: Optional[Node] = None,
        tile_sizes: Optional[Sequence[int]] = None,
    ):
        super().__init__(child)
        self.schedules: Dict[str, Tuple[LinExpr, ...]] = {
            s: tuple(rows) for s, rows in schedules.items()
        }
        self.dim_names = tuple(dim_names)
        n = len(self.dim_names)
        for s, rows in self.schedules.items():
            if len(rows) != n:
                raise ValueError(
                    f"band rows for {s} have {len(rows)} dims, expected {n}"
                )
        self.permutable = permutable
        self.coincident = list(coincident) if coincident is not None else [False] * n
        # A *tile band*: each dimension iterates over tile origins with the
        # given step (the tile size).  ``None`` marks an ordinary point band.
        self.tile_sizes = tuple(tile_sizes) if tile_sizes is not None else None
        if self.tile_sizes is not None and len(self.tile_sizes) != n:
            raise ValueError("tile_sizes arity mismatch")

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    def copy(self) -> "BandNode":
        return BandNode(
            {s: rows for s, rows in self.schedules.items()},
            self.dim_names,
            self.permutable,
            list(self.coincident),
            self.child.copy() if self.child else None,
            self.tile_sizes,
        )

    def statements(self) -> Tuple[str, ...]:
        return tuple(self.schedules)

    def row(self, stmt: str, i: int) -> LinExpr:
        return self.schedules[stmt][i]

    def n_parallel(self) -> int:
        """Number of leading coincident dimensions."""
        count = 0
        for c in self.coincident:
            if not c:
                break
            count += 1
        return count

    def _label(self) -> str:
        rows = "; ".join(
            f"{s}->({', '.join(str(r) for r in rows)})"
            for s, rows in self.schedules.items()
        )
        flags = f" permutable={int(self.permutable)} coincident={[int(c) for c in self.coincident]}"
        if self.tile_sizes is not None:
            flags += f" tile_sizes={list(self.tile_sizes)}"
        return f"band[{', '.join(self.dim_names)}]: [{rows}]{flags}"


class MarkNode(Node):
    """A string attached to the subtree (e.g. ``"skipped"``, ``"kernel"``)."""

    def __init__(self, mark: str, child: Optional[Node] = None):
        super().__init__(child)
        self.mark = mark

    def copy(self) -> "MarkNode":
        return MarkNode(self.mark, self.child.copy() if self.child else None)

    def _label(self) -> str:
        return f'mark: "{self.mark}"'


class ExtensionNode(Node):
    """Adds statement instances as a function of outer band dimensions.

    ``extension`` maps the outer schedule dims (matched by *name* to
    enclosing band ``dim_names``) to statement instances, e.g. relation (6)
    of the paper: ``{ (o0, o1) -> S0[h, w] : ... }``.
    """

    def __init__(self, extension: UnionMap, child: Optional[Node] = None):
        super().__init__(child)
        self.extension = extension

    def copy(self) -> "ExtensionNode":
        return ExtensionNode(self.extension, self.child.copy() if self.child else None)

    def added_statements(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(out for (_, out) in self.extension.keys()))

    def _label(self) -> str:
        return f"extension: {self.extension}"


class LeafNode(Node):
    """Explicit leaf (executes the filtered statement instances)."""

    def __init__(self):
        super().__init__(None)

    def copy(self) -> "LeafNode":
        return LeafNode()

    def _label(self) -> str:
        return "leaf"
