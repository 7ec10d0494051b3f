"""Unit tests for schedule trees and their transformations."""

import pytest

from repro.pipelines import conv2d
from repro.presburger import LinExpr, parse_union_map
from repro.schedule import (
    SKIPPED,
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    SequenceNode,
    initial_tree,
    insert_extension_below,
    mark_skipped,
    top_level_filters,
)


@pytest.fixture()
def tree():
    return initial_tree(conv2d.build({"H": 8, "W": 8}))


class TestInitialTree:
    def test_structure(self, tree):
        assert isinstance(tree, DomainNode)
        seq = tree.child
        assert isinstance(seq, SequenceNode)
        assert [f.statements for f in seq.filters] == [
            ("S0",), ("S1",), ("S2",), ("S3",)
        ]

    def test_bands_cover_statement_dims(self, tree):
        bands = [n for n in tree.walk() if isinstance(n, BandNode)]
        by_stmt = {b.statements()[0]: b for b in bands}
        assert by_stmt["S2"].n_dims == 4
        assert by_stmt["S0"].n_dims == 2

    def test_walk_visits_all(self, tree):
        kinds = [type(n).__name__ for n in tree.walk()]
        assert kinds.count("FilterNode") == 4
        assert kinds.count("BandNode") == 4
        assert kinds.count("LeafNode") == 4

    def test_pretty_renders(self, tree):
        text = tree.pretty()
        assert "domain" in text
        assert "sequence" in text
        assert "band" in text


class TestBandNode:
    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            BandNode({"S": [LinExpr.var("i")]}, ["a", "b"])

    def test_tile_sizes_arity_checked(self):
        with pytest.raises(ValueError):
            BandNode({"S": [LinExpr.var("i")]}, ["a"], tile_sizes=[4, 4])

    def test_n_parallel_prefix(self):
        b = BandNode({"S": [LinExpr.var(n) for n in "ijk"]}, ["a", "b", "c"],
                     coincident=[True, True, False])
        assert b.n_parallel() == 2

    def test_copy_is_deep(self, tree):
        clone = tree.copy()
        mark_skipped(top_level_filters(clone)[0])
        assert not isinstance(top_level_filters(tree)[0].child, MarkNode)


class TestMarks:
    def test_mark_is_idempotent(self, tree):
        filt = top_level_filters(tree)[0]
        mark_skipped(filt)
        mark_skipped(filt)
        assert isinstance(filt.child, MarkNode) and filt.child.mark == SKIPPED
        assert not isinstance(filt.child.child, MarkNode)


class TestExtensionInsertion:
    def test_insert_below_band(self, tree):
        (filt,) = [f for f in top_level_filters(tree) if f.statements == ("S2",)]
        band = filt.child
        ext_map = parse_union_map("{ [t0, t1] -> S0[h, w] : t0 <= h < t0 + 4 }")
        node = insert_extension_below(band, ext_map, LeafNode())
        assert isinstance(band.child, ExtensionNode)
        assert node.added_statements() == ("S0",)
        seq = node.child
        assert isinstance(seq, SequenceNode)
        assert seq.filters[0].statements == ("S0",)
