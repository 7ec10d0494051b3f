"""Union sets and union maps: collections keyed by tuple name.

These mirror isl's ``union_set``/``union_map``: a ``UnionSet`` maps a tuple
name (a statement or tensor) to a :class:`Set`; a ``UnionMap`` maps a pair of
tuple names to a :class:`Map`.  They are the currency of dependence analysis
and of the paper's Algorithms 1–3.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .map_ import Map
from .set_ import Set


class UnionSet:
    """A union of sets in different spaces, keyed by tuple name."""

    __slots__ = ("sets",)

    def __init__(self, sets: Mapping[str, Set] | Iterable[Set] = ()):
        table: Dict[str, Set] = {}
        if isinstance(sets, Mapping):
            items = sets.values()
        else:
            items = sets
        for s in items:
            name = s.space.name
            if name in table:
                table[name] = table[name].union(s)
            else:
                table[name] = s
        object.__setattr__(self, "sets", table)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("UnionSet is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    @staticmethod
    def empty() -> "UnionSet":
        return UnionSet({})

    # -- access ------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(self.sets)

    def get(self, name: str) -> Optional[Set]:
        return self.sets.get(name)

    def __getitem__(self, name: str) -> Set:
        return self.sets[name]

    def __contains__(self, name: str) -> bool:
        return name in self.sets

    def __iter__(self) -> Iterator[Set]:
        return iter(self.sets.values())

    def __len__(self) -> int:
        return len(self.sets)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(s.is_empty() for s in self.sets.values())

    def is_subset(self, other: "UnionSet") -> bool:
        for name, s in self.sets.items():
            if s.is_empty():
                continue
            if name not in other.sets:
                return False
            if not s.is_subset(other.sets[name]):
                return False
        return True

    def is_equal(self, other: "UnionSet") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "UnionSet") -> "UnionSet":
        table = dict(self.sets)
        for name, s in other.sets.items():
            if name in table:
                table[name] = table[name].union(s)
            else:
                table[name] = s
        return UnionSet(table)

    def intersect(self, other: "UnionSet") -> "UnionSet":
        table = {}
        for name, s in self.sets.items():
            if name in other.sets:
                table[name] = s.intersect(other.sets[name])
        return UnionSet(table)

    def subtract(self, other: "UnionSet") -> "UnionSet":
        table = {}
        for name, s in self.sets.items():
            if name in other.sets:
                table[name] = s.subtract(other.sets[name])
            else:
                table[name] = s
        return UnionSet(table)

    def coalesce(self) -> "UnionSet":
        return UnionSet({n: s.coalesce() for n, s in self.sets.items()})

    def fix_params(self, binding: Mapping[str, int]) -> "UnionSet":
        return UnionSet({n: s.fix_params(binding) for n, s in self.sets.items()})

    def specialize(self, binding: Mapping[str, int]) -> "UnionSet":
        return UnionSet({n: s.specialize(binding) for n, s in self.sets.items()})

    def count_points(self, params=None) -> int:
        return sum(s.count_points(params) for s in self.sets.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnionSet):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        return f"UnionSet({self})"

    def __str__(self) -> str:
        return "{ " + "; ".join(str(s) for s in self.sets.values()) + " }"


class UnionMap:
    """A union of maps in different spaces, keyed by (in_name, out_name)."""

    __slots__ = ("maps",)

    def __init__(
        self, maps: Mapping[Tuple[str, str], Map] | Iterable[Map] = ()
    ):
        table: Dict[Tuple[str, str], Map] = {}
        if isinstance(maps, Mapping):
            items = maps.values()
        else:
            items = maps
        for m in items:
            key = (m.space.in_name, m.space.out_name)
            if key in table:
                prev = table[key]
                rename = dict(zip(m.space.in_dims, prev.space.in_dims))
                rename.update(zip(m.space.out_dims, prev.space.out_dims))
                table[key] = prev.union(m.rename_dims(rename))
            else:
                table[key] = m
        object.__setattr__(self, "maps", table)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("UnionMap is immutable")

    def __getstate__(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __setstate__(self, state):
        for slot, value in zip(self.__slots__, state):
            object.__setattr__(self, slot, value)

    @staticmethod
    def empty() -> "UnionMap":
        return UnionMap({})

    # -- access ------------------------------------------------------------

    def keys(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self.maps)

    def get(self, key: Tuple[str, str]) -> Optional[Map]:
        return self.maps.get(key)

    def __getitem__(self, key: Tuple[str, str]) -> Map:
        return self.maps[key]

    def __contains__(self, key) -> bool:
        return key in self.maps

    def __iter__(self) -> Iterator[Map]:
        return iter(self.maps.values())

    def __len__(self) -> int:
        return len(self.maps)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(m.is_empty() for m in self.maps.values())

    def is_subset(self, other: "UnionMap") -> bool:
        for key, m in self.maps.items():
            if m.is_empty():
                continue
            if key not in other.maps:
                return False
            theirs = other.maps[key]
            rename = dict(zip(m.space.in_dims, theirs.space.in_dims))
            rename.update(zip(m.space.out_dims, theirs.space.out_dims))
            if not m.rename_dims(rename).is_subset(theirs):
                return False
        return True

    def is_equal(self, other: "UnionMap") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "UnionMap") -> "UnionMap":
        return UnionMap(list(self.maps.values()) + list(other.maps.values()))

    def reverse(self) -> "UnionMap":
        return UnionMap([m.reverse() for m in self.maps.values()])

    def domain(self) -> UnionSet:
        return UnionSet([m.domain() for m in self.maps.values()])

    def range(self) -> UnionSet:
        return UnionSet([m.range() for m in self.maps.values()])

    def intersect_domain(self, dom: UnionSet) -> "UnionMap":
        out = []
        for (in_name, _), m in self.maps.items():
            s = dom.get(in_name)
            if s is None:
                continue
            aligned = s.rename_dims(dict(zip(s.space.dims, m.space.in_dims)))
            out.append(m.intersect_domain(aligned))
        return UnionMap(out)

    def intersect_range(self, rng: UnionSet) -> "UnionMap":
        out = []
        for (_, out_name), m in self.maps.items():
            s = rng.get(out_name)
            if s is None:
                continue
            aligned = s.rename_dims(dict(zip(s.space.dims, m.space.out_dims)))
            out.append(m.intersect_range(aligned))
        return UnionMap(out)

    def apply_range(self, other: "UnionMap") -> "UnionMap":
        out = []
        for (a_in, a_out), m1 in self.maps.items():
            for (b_in, b_out), m2 in other.maps.items():
                if a_out != b_in or m1.space.n_out != m2.space.n_in:
                    continue
                composed = m1.apply_range(m2)
                if not composed.is_empty():
                    out.append(composed)
        return UnionMap(out)

    def apply_to_set(self, uset: UnionSet) -> UnionSet:
        out = []
        for (in_name, _), m in self.maps.items():
            s = uset.get(in_name)
            if s is None:
                continue
            aligned = s.rename_dims(dict(zip(s.space.dims, m.space.in_dims)))
            image = m.apply_to_set(aligned)
            if not image.is_empty():
                out.append(image)
        return UnionSet(out)

    def subtract(self, other: "UnionMap") -> "UnionMap":
        table = {}
        for key, m in self.maps.items():
            if key in other.maps:
                theirs = other.maps[key]
                rename = dict(zip(theirs.space.in_dims, m.space.in_dims))
                rename.update(zip(theirs.space.out_dims, m.space.out_dims))
                table[key] = m.subtract(theirs.rename_dims(rename))
            else:
                table[key] = m
        return UnionMap(table)

    def coalesce(self) -> "UnionMap":
        return UnionMap({k: m.coalesce() for k, m in self.maps.items()})

    def fix_params(self, binding: Mapping[str, int]) -> "UnionMap":
        return UnionMap({k: m.fix_params(binding) for k, m in self.maps.items()})

    def specialize(self, binding: Mapping[str, int]) -> "UnionMap":
        return UnionMap({k: m.specialize(binding) for k, m in self.maps.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnionMap):
            return NotImplemented
        return self.is_equal(other)

    def __repr__(self) -> str:
        return f"UnionMap({self})"

    def __str__(self) -> str:
        return "{ " + "; ".join(str(m) for m in self.maps.values()) + " }"
