"""``repro.presburger`` — an exact integer set library (isl-lite).

This subpackage implements the subset of isl's functionality that the
paper's Algorithms 1–3 rely on: affine sets and maps with exact integer
semantics, unions keyed by tuple names, Fourier–Motzkin projection, and the
elementary operations (intersect, union, subtract, apply, reverse, domain,
range) used to compute memory footprints, upwards-exposed data and
extension schedules.
"""

from . import memo
from .basic_map import BasicMap
from .basic_set import BasicSet
from .constraint import EQ, GE, Constraint
from .enumerate import EnumerationError, enumerate_points, enumerate_set_points
from .fm import FeasibilityUndecided
from .linexpr import C, LinExpr, V
from .map_ import Map
from .parse import (
    ParseError,
    parse_map,
    parse_set,
    parse_union_map,
    parse_union_set,
)
from .set_ import Set
from .space import MapSpace, SetSpace, fresh_names
from .union import UnionMap, UnionSet

__all__ = [
    "BasicMap",
    "BasicSet",
    "C",
    "Constraint",
    "EQ",
    "EnumerationError",
    "FeasibilityUndecided",
    "GE",
    "LinExpr",
    "Map",
    "MapSpace",
    "ParseError",
    "Set",
    "memo",
    "SetSpace",
    "UnionMap",
    "UnionSet",
    "V",
    "fresh_names",
    "parse_map",
    "parse_set",
    "parse_union_map",
    "parse_union_set",
]
