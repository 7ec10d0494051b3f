"""Every comparator is a legal program.

Halide's and PolyMage's schedules are fixed partitions run through the
paper's own tiling machinery (``repro.baselines.manual.partitioned_result``),
and Table I costs them.  Here each is lowered the way ``optimize`` lowers
its own result (``apply_mixed_schedules``) and must be a program the paper
would accept:

* every reader of a fused (extension) space sits in a cluster that fuses
  it, or the skipped original never writes what that reader reads;
* ``validate_tree`` finds no flow dependence it reverses;
* its C computes what ``execute_naive`` computes.

The PPCG heuristics' trees (smartfuse, maxfuse and hybridfuse, every
tilable group tiled alike) are the other columns of the same tables and
get the last two checks.

Sizes are the smallest each builder fills.  local_laplacian runs two of
its eight blocks (the full pipeline takes 40 s here; two blocks already
split into clusters, and its PolyMage tree reversed 4,096 flow pairs
before the fix).  multiscale_interp's builder declares tensors of extent
<= 0 below the full image (at 160 ``t_dbx5`` has extent 0), so
``make_store`` rejects every size this test can afford; that pipeline
gets the first two checks only, at 160, where ``validate_tree`` works
from the domains alone.
"""

import numpy as np
import pytest

from repro.baselines.manual import partitioned_result
from repro.codegen import execute_naive, make_store
from repro.codegen.cbackend import compile_and_run, compiler_available
from repro.core import ExtensionScheduleEntry, apply_mixed_schedules
from repro.core.validate import validate_tree
from repro.pipelines import (
    bilateral_grid,
    camera_pipeline,
    harris,
    local_laplacian,
    multiscale_interp,
    unsharp_mask,
)
from repro.scheduler import HYBRIDFUSE, MAXFUSE, SMARTFUSE, schedule_program, tile_all_groups

#: ``(module, builder arguments, runs the C round trip)`` per named pipeline.
PIPELINES = {
    "bilateral_grid": (bilateral_grid, {"size": 32}, True),
    "camera_pipeline": (camera_pipeline, {"size": 32}, True),
    "harris": (harris, {"size": 32}, True),
    "local_laplacian": (local_laplacian, {"size": 64, "blocks": 2}, True),
    "multiscale_interp": (multiscale_interp, {"size": 160}, False),
    "unsharp_mask": (unsharp_mask, {"size": 32}, True),
}
TILES = (8, 8)


def lowered(name, comparator):
    module, args, _ = PIPELINES[name]
    program = module.build(**args)
    partition = getattr(module, comparator)(program)
    res = partitioned_result(program, partition, TILES)
    tree = apply_mixed_schedules(program, res.scheduled, res.mixed)
    return program, res, tree


@pytest.mark.parametrize("comparator", ["halide_partition", "polymage_partition"])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_comparator_is_a_legal_program(name, comparator):
    program, res, tree = lowered(name, comparator)

    clusters = res.mixed.fused_groups()
    for entry in res.mixed.entries:
        if not isinstance(entry, ExtensionScheduleEntry):
            continue
        fusing = [c for c in clusters if any(g is entry.group for g in c)]
        members = {s for c in fusing for g in c for s in g.statements}
        for s in entry.group.statements:
            for reader in program.readers_of(program.statement(s).tensor_written()):
                assert reader.name in members, (s, reader.name)

    assert_legal(name, program, tree)


@pytest.mark.parametrize("heuristic", [SMARTFUSE, MAXFUSE, HYBRIDFUSE])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_ppcg_heuristic_is_a_legal_program(name, heuristic):
    module, args, _ = PIPELINES[name]
    program = module.build(**args)
    tree = tile_all_groups(schedule_program(program, heuristic), TILES)
    assert_legal(name, program, tree)


def assert_legal(name, program, tree):
    """``validate_tree``, then the C round trip where the size allows it."""
    report = validate_tree(tree, program)
    assert report.ok, report

    if not PIPELINES[name][2] or not compiler_available():
        return
    got = compile_and_run(tree, program, make_store(program), openmp=False)
    ref = make_store(program)
    execute_naive(program, ref)
    for t in program.liveout:
        np.testing.assert_allclose(got[t], ref[t], rtol=1e-9, atol=1e-12)
