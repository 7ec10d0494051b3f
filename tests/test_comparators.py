"""Every strategy is a legal program.

``repro.baselines.strategies`` gives every strategy the tables compare an
``OptimizeResult``: ours, the naive program, Halide's and PolyMage's
partitions (run through the paper's own tiling machinery and lowered the
way ``optimize`` lowers its own result) and the PPCG/Pluto heuristics
(every tilable group tiled alike).  Each result's tree must be a program
the paper would accept:

* every reader of a fused (extension) space sits in a cluster that fuses
  it, or the skipped original never writes what that reader reads;
* ``validate_tree`` finds no flow dependence it reverses;
* its C computes what ``execute_naive`` computes.

One check serves every entry of the map that is not ``None``; the two
test names split the entries as the comparators and the heuristics were
split before they shared a result type, so their ids stay as recorded.

Sizes are the smallest each builder fills.  local_laplacian runs two of
its eight blocks (the full pipeline takes 40 s here; two blocks already
split into clusters, and its PolyMage tree reversed 4,096 flow pairs
before the fix).  multiscale_interp's builder declares tensors of extent
<= 0 below the full image (at 160 ``t_dbx5`` has extent 0), so
``make_store`` rejects every size this test can afford; that pipeline
gets the first two checks only, at 160, where ``validate_tree`` works
from the domains alone.
"""

import functools

import numpy as np
import pytest

from repro import CompileOptions
from repro.baselines import strategies
from repro.codegen import execute_naive, make_store
from repro.codegen.cbackend import compile_and_run, compiler_available
from repro.core import ExtensionScheduleEntry
from repro.core.validate import validate_tree
from repro.pipelines import (
    bilateral_grid,
    camera_pipeline,
    harris,
    local_laplacian,
    multiscale_interp,
    unsharp_mask,
)
from repro.scheduler import HYBRIDFUSE, MAXFUSE, MINFUSE, SMARTFUSE

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


#: The partition-driven comparators and the strategies beside them, by test id.
COMPARATORS = {
    "halide_partition": "halide",
    "polymage_partition": "polymage",
    "ours": "ours",
    "naive": "naive",
}


@functools.lru_cache(maxsize=None)
def strategy_map(name):
    module, args, _ = PIPELINES[name]
    program = module.build(**args)
    return program, strategies(program, CompileOptions(tile_sizes=TILES))


@pytest.mark.parametrize("comparator", list(COMPARATORS))
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_comparator_is_a_legal_program(name, comparator):
    assert_legal(name, COMPARATORS[comparator])


@pytest.mark.parametrize("heuristic", [MINFUSE, SMARTFUSE, MAXFUSE, HYBRIDFUSE])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_ppcg_heuristic_is_a_legal_program(name, heuristic):
    assert_legal(name, heuristic)


def assert_legal(name, strategy):
    """The readers of every fused space, ``validate_tree``, then the C round
    trip where the size allows it."""
    program, results = strategy_map(name)
    res = results[strategy]
    clusters = res.clusters
    for entry in res.mixed.entries:
        if not isinstance(entry, ExtensionScheduleEntry):
            continue
        fusing = [c for c in clusters if any(g is entry.group for g in c)]
        members = {s for c in fusing for g in c for s in g.statements}
        for s in entry.group.statements:
            for reader in program.readers_of(program.statement(s).tensor_written()):
                assert reader.name in members, (s, reader.name)

    tree = res.fresh().tree
    report = validate_tree(tree, program)
    assert report.ok, report

    if not PIPELINES[name][2] or not compiler_available():
        return
    got = compile_and_run(tree, program, make_store(program), openmp=False)
    ref = make_store(program)
    execute_naive(program, ref)
    for t in program.liveout:
        np.testing.assert_allclose(got[t], ref[t], rtol=1e-9, atol=1e-12)
