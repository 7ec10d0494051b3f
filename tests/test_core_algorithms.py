"""Tests for the paper's core algorithms, mirroring the running example.

Section III fixes H = W = 6, KH = KW = 3 and tile sizes T2 = T3 = 2 for the
reduction space; we reproduce the published footprints and extension
schedules exactly (with tile-origin coordinates: the paper's tile (o0, o1)
is our origin (2*o0, 2*o1)).
"""

import pytest

from repro import CompileOptions
from repro.core import (
    CPU,
    ExtensionScheduleEntry,
    GPU,
    TILE_TUPLE,
    TilingScheduleEntry,
    construct_tile_shapes,
    exposed_tensors,
    footprint_size,
    intermediate_groups_of,
    liveout_groups,
    optimize,
    tile_footprint,
    tile_to_instances,
)
from repro.core.footprint import tile_image
from repro.pipelines import conv2d
from repro.scheduler import SMARTFUSE, schedule_program
from repro.schedule import SKIPPED, BandNode, ExtensionNode, MarkNode, top_level_filters

PARAMS = {"H": 6, "W": 6, "KH": 3, "KW": 3}


@pytest.fixture(scope="module")
def setup():
    prog = conv2d.build(PARAMS)
    sched = schedule_program(prog, SMARTFUSE)
    return prog, sched


class TestLiveoutIdentification:
    def test_liveout_group_is_reduction_space(self, setup):
        prog, sched = setup
        los = liveout_groups(prog, sched.groups)
        assert len(los) == 1
        assert set(los[0].statements) == {"S1", "S2", "S3"}

    def test_intermediates_of_liveout(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        assert [set(g.statements) for g in inters] == [{"S0"}]

    def test_exposed_tensors(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        assert exposed_tensors(prog, L, sched.groups) == ("A",)


class TestFootprints:
    """Section III-A: the published footprints of the blue and red tiles."""

    def test_tile_to_instances(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        t2i = tile_to_instances(prog, L, (2, 2))
        m = t2i[(TILE_TUPLE, "S2")].fix_params(PARAMS)
        inst = m.image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 0})
        # 2x2 points of (h, w) x 3x3 reduction points
        assert inst.count_points() == 4 * 9

    def test_blue_tile_footprint(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        fp = tile_footprint(prog, L, (2, 2), ("A",))
        m = fp[(TILE_TUPLE, "A")]
        blue = {f"{L.name}_o0": 2, f"{L.name}_o1": 0}
        elems = m.fix_params(PARAMS).image_of_point(blue)
        # paper: { A[h', w'] : 2 <= h' <= 5 and 0 <= w' <= 3 }
        assert elems.count_points() == 16
        box = elems.bounding_box()
        (d0, d1) = elems.space.dims
        assert box[d0] == (2, 5)
        assert box[d1] == (0, 3)

    def test_red_tile_footprint_overlaps_blue(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        fp = tile_footprint(prog, L, (2, 2), ("A",))
        m = fp[(TILE_TUPLE, "A")].fix_params(PARAMS)
        blue = m.image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 0})
        red = m.image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 2})
        inter = blue.intersect(red)
        # the interleaved region: 2 <= h' <= 5, 2 <= w' <= 3
        assert inter.count_points() == 8

    def test_footprint_size_helper(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        fp = tile_footprint(prog, L, (2, 2), ("A",))
        size = footprint_size(
            fp[(TILE_TUPLE, "A")],
            {f"{L.name}_o0": 2, f"{L.name}_o1": 2},
            PARAMS,
        )
        assert size == 16


class TestAlgorithm1:
    def test_mixed_schedules_structure(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        mixed = construct_tile_shapes(prog, L, inters, (2, 2), CPU)
        kinds = [type(e).__name__ for e in mixed.entries]
        assert kinds == ["TilingScheduleEntry", "ExtensionScheduleEntry"]
        assert mixed.entries[0].tile_sizes == (2, 2)

    def test_extension_schedule_matches_relation6(self, setup):
        """The extension schedule must reproduce relation (6): the blue
        tile pulls S0 instances { S0[h, w] : 2 <= h <= 5, 0 <= w <= 3 }."""
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        mixed = construct_tile_shapes(prog, L, inters, (2, 2), CPU)
        ext = mixed.entries[1]
        inst = tile_image(
            ext.relation[(TILE_TUPLE, "S0")], {f"{L.name}_o0": 2, f"{L.name}_o1": 0}, PARAMS
        )
        assert inst.count_points() == 16
        box = inst.bounding_box()
        dims = inst.space.dims
        assert box[dims[0]] == (2, 5)
        assert box[dims[1]] == (0, 3)

    def test_overlapping_extension_tiles(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        mixed = construct_tile_shapes(prog, L, inters, (2, 2), CPU)
        ext = mixed.entries[1]
        m = ext.relation[(TILE_TUPLE, "S0")]
        blue = tile_image(m, {f"{L.name}_o0": 2, f"{L.name}_o1": 0}, PARAMS)
        red = tile_image(m, {f"{L.name}_o0": 2, f"{L.name}_o1": 2}, PARAMS)
        assert not blue.intersect(red).is_empty()

    def test_gpu_target_requires_2d_parallelism(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        mixed = construct_tile_shapes(prog, L, inters, (2, 2), GPU)
        # conv2d's live-out space has 2 parallel dims, so GPU still tiles
        assert mixed.entries[0].is_tiled

    def test_fused_groups_listing(self, setup):
        prog, sched = setup
        L = liveout_groups(prog, sched.groups)[0]
        inters = intermediate_groups_of(prog, L, sched.groups)
        mixed = construct_tile_shapes(prog, L, inters, (2, 2), CPU)
        clusters = mixed.fused_groups()
        assert len(clusters) == 1
        assert clusters[0][0] is L


class TestEndToEnd:
    def test_optimize_fuses_all_statements(self):
        prog = conv2d.build(PARAMS)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        assert result.fusion_summary() == [["S0", "S1", "S2", "S3"]]

    def test_tree_has_extension_below_tile_band(self):
        prog = conv2d.build(PARAMS)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        exts = [n for n in result.tree.walk() if isinstance(n, ExtensionNode)]
        assert len(exts) == 1
        bands = [n for n in result.tree.walk() if isinstance(n, BandNode)]
        tile_bands = [b for b in bands if b.tile_sizes is not None]
        assert len(tile_bands) == 1
        assert tile_bands[0].tile_sizes == (2, 2)
        # the extension node sits directly below the tile band
        assert tile_bands[0].child is exts[0]

    def test_original_s0_subtree_skipped(self):
        prog = conv2d.build(PARAMS)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        filters = top_level_filters(result.tree)
        s0_filters = [f for f in filters if f.statements == ("S0",)]
        assert len(s0_filters) == 1
        mark = s0_filters[0].child
        assert isinstance(mark, MarkNode) and mark.mark == SKIPPED

    def test_parallelism_not_lost(self):
        prog = conv2d.build(PARAMS)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        bands = [
            n
            for n in result.tree.walk()
            if isinstance(n, BandNode) and n.tile_sizes is not None
        ]
        assert bands[0].coincident == [True, True]

    def test_compile_time_recorded(self):
        prog = conv2d.build(PARAMS)
        result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(2, 2)))
        assert result.compile_seconds > 0


def _dead_stage_beside_its_producer():
    """``pw0`` feeds two 3-point stencils that ``cb4`` combines, and a dead
    ``pw2`` reads it too: startup fusion puts ``pw0`` and ``pw2`` in one
    group, whose latest statement runs after the stencil ``sx1`` reads."""
    from repro.pipelines.common import Image, ImagePipeline

    p = ImagePipeline("dead_stage")
    img = p.source("in_img", 18, 18)
    pw0 = p.pointwise("pw0", [img], lambda a: a * 1.5 + 0.25)
    sx1 = p.stencil("sx1", pw0, [(0, 0), (0, 1), (0, 2)])
    p.pointwise("pw2", [pw0], lambda a: a * 1.5 + 0.25)
    sx3 = p.stencil("sx3", pw0, [(0, 0), (0, 1), (0, 2)])
    a, b = Image(sx1.tensor, 18, 16), Image(sx3.tensor, 18, 16)
    out = p.pointwise("cb4", [a, b], lambda x, y: x + y * 0.5)
    return p.build([out])


def test_a_producer_is_ordered_after_its_consumers_not_by_its_latest_statement():
    """Intermediate spaces come consumers first by their dependences: the
    group holding ``pw0`` and the dead ``pw2`` goes after ``sx1``, which
    reads ``pw0``, so ``pw0``'s instances are spliced to run first."""
    import numpy as np

    from repro.codegen import execute_naive, make_store, run_program
    from repro.core.validate import validate_tree

    prog = _dead_stage_beside_its_producer()
    sched = schedule_program(prog, SMARTFUSE)
    (liveout,) = liveout_groups(prog, sched.groups)
    inters = intermediate_groups_of(prog, liveout, sched.groups)
    assert [list(g.statements) for g in inters] == [["S1_sx1"], ["S0_pw0", "S2_pw2"]]

    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
    assert validate_tree(result.tree, prog, max_pairs_per_dep=4000).ok
    ref = make_store(prog)
    execute_naive(prog, ref)
    store, _ = run_program(prog, result.tree)
    np.testing.assert_allclose(store["t_cb4"], ref["t_cb4"], rtol=1e-9, atol=1e-12)


class TestWhyASpaceStaysOut:
    """Algorithm 1 names the reason it leaves a space out of a tile, on the
    ``fuse_space`` span and as ``tile_shapes.rejected.<reason>``, beside
    the unchanged ``tile_shapes.rejected_spaces`` total."""

    REASONS = ("no_footprint", "recompute_factor", "recompute_ratio", "scratch_budget")

    def rejected(self, name, size, tiles):
        from repro import obs
        from repro.workloads import get_workload

        with obs.collect(trace=True) as report:
            optimize(get_workload(name, size), CompileOptions(tile_sizes=tiles))
        counts = {
            why: report.counters.get(f"tile_shapes.rejected.{why}", 0)
            for why in self.REASONS
        }
        spans = [e.attrs for e in report.events if e.name == "fuse_space"]
        assert sum(counts.values()) == report.counters.get("tile_shapes.rejected_spaces", 0)
        for why, n in counts.items():
            assert n == sum(1 for a in spans if a.get("reason") == why)
        assert all(("reason" in a) != a["fused"] for a in spans)
        return counts

    def test_a_deep_stencil_chain_splits_on_the_cluster_ratio(self):
        counts = self.rejected("local_laplacian", 512, (32, 32))
        assert counts["recompute_ratio"] >= 1

    def test_a_matmul_chain_stays_apart_on_the_recompute_factor(self):
        counts = self.rejected("2mm", 256, (8, 8))
        assert counts == dict.fromkeys(self.REASONS, 0) | {"recompute_factor": 1}

    def test_most_rejections_of_a_pyramid_are_spaces_without_a_footprint(self):
        counts = self.rejected("multiscale_interp", 512, (32, 128))
        assert counts == dict.fromkeys(self.REASONS, 0) | {"no_footprint": 986}
