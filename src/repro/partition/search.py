"""Stage-level target assignment: the partitioner's beam search.

The heterogeneous partitioner views a pipeline as its statement DAG in
program order (program order is topological — dependences only point
forward) and chooses one target per statement.  Contiguous runs of the
same target become partitions; every producer/consumer edge that crosses
a run boundary becomes a cut, priced by the transfer model on the exact
Presburger footprint of the consumed region.

The search is a beam over statements in program order.  Each candidate
assignment is scored with a cheap per-stage cost — one
:class:`~repro.machine.cost.ClusterWork` built from the statement's exact
read/write footprints, priced by the per-target machine models — plus the
transfer term for every consumed tensor whose latest producer sits on a
different target.  The *final* plan is re-priced exactly (per-partition
compile + :func:`~repro.machine.analyze_optimized`) by the partitioner;
the per-stage estimates only steer the search.

Pattern legality mirrors the NPU's programming model: a statement that
updates a tensor in place (an ASSIGN reading the tensor it writes, like
conv2d's quantisation stage) has no dataflow mapping on the NPU and is
never assigned there — the NPU-offload-with-CPU-fallback scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir import ASSIGN, Program
from ..machine.cost import ITEMSIZE, ClusterWork
from ..machine.targets import cluster_cost
from ..machine.transfer import TransferSpec, transfer_time

#: Nominal tile edge used for the search's parallelism estimate.
_EST_TILE = 32


@dataclass
class StageInfo:
    """One statement's search-relevant features."""

    name: str
    index: int
    target_illegal: Tuple[str, ...]       # targets this stage may not run on
    tensor_written: str
    #: tensor -> exact footprint bytes this stage consumes (rhs reads,
    #: plus the accumulator footprint of a reduction — data that must be
    #: resident before the stage runs).
    consumes: Dict[str, int] = field(default_factory=dict)
    work: Optional[ClusterWork] = None


def stage_infos(
    program: Program, params: Optional[Mapping[str, int]] = None
) -> List[StageInfo]:
    """Per-statement features for the whole pipeline, in program order."""
    params = dict(program.params, **(params or {}))
    stages: List[StageInfo] = []
    for i, stmt in enumerate(program.statements):
        written = stmt.tensor_written()
        inplace = stmt.kind == ASSIGN and written in stmt.tensors_read()

        # read_relations() carries one merged access map per tensor, and for
        # a reduction it already includes the accumulator load — so this is
        # exactly the data that must be resident before the stage runs.
        consumes: Dict[str, int] = {}
        for (_, tensor), access in stmt.read_relations().maps.items():
            region = access.apply_to_set(stmt.domain)
            consumes[tensor] = region.count_points(params) * ITEMSIZE

        vol = stmt.domain.count_points(params)
        ops = float(vol * stmt.ops_per_instance())
        write_region = stmt.write_relation().apply_to_set(stmt.domain)
        write_bytes = write_region.count_points(params) * ITEMSIZE
        box = stmt.domain.fix_params(params).bounding_box()
        extents = [
            (hi - lo + 1)
            for d in stmt.dims[:2]
            for lo, hi in [box.get(d, (0, 0))]
            if lo is not None and hi is not None
        ]
        n_tiles = 1
        for e in extents:
            n_tiles *= max(1, -(-e // _EST_TILE))
        work = ClusterWork(
            name=stmt.name,
            statements=[stmt.name],
            ops=ops,
            recompute_ops=0.0,
            dram_read_bytes=float(sum(consumes.values())),
            dram_write_bytes=float(write_bytes),
            scratch_traffic_bytes=0.0,
            n_tiles=n_tiles,
            parallel_units=n_tiles,
            n_parallel_dims=min(2, len(extents)),
            scratch_bytes_per_tile=0,
            vectorizable=True,
        )
        stages.append(
            StageInfo(
                name=stmt.name,
                index=i,
                target_illegal=("npu",) if inplace else (),
                tensor_written=written,
                consumes=consumes,
                work=work,
            )
        )
    return stages


def legal_targets(stage: StageInfo, targets: Sequence[str]) -> List[str]:
    out = [t for t in targets if t not in stage.target_illegal]
    if not out:
        # Every pipeline stage can always fall back to the host.
        out = ["cpu"] if "cpu" in targets else list(targets[:1])
    return out


def score_assignment(
    stages: Sequence[StageInfo],
    assignment: Sequence[str],
    transfer: TransferSpec,
    threads: int = 32,
) -> float:
    """The search's modeled total of one explicit assignment."""
    producer: Dict[str, int] = {}
    total = 0.0
    for stage, target in zip(stages, assignment):
        total += cluster_cost(stage.work, target, threads)
        for tensor, nbytes in stage.consumes.items():
            src_idx = producer.get(tensor)
            if src_idx is None:
                continue
            src = assignment[src_idx]
            if src != target:
                total += transfer_time(src, target, nbytes, transfer)
        producer[stage.tensor_written] = stage.index
    return total


def beam_assign(
    stages: Sequence[StageInfo],
    targets: Sequence[str],
    transfer: TransferSpec,
    threads: int = 32,
    beam_width: int = 8,
) -> Tuple[List[str], float]:
    """Beam search over per-stage target assignments, in program order.

    Returns ``(assignment, estimated_cost)`` — one target name per stage
    and the search's modeled total (per-stage compute + cut transfers).
    Deterministic: ties break on the assignment tuple.
    """
    # Latest producer of each tensor, as a stage index.
    producer: Dict[str, int] = {}
    producers_before: List[Dict[str, int]] = []
    for stage in stages:
        producers_before.append(dict(producer))
        producer[stage.tensor_written] = stage.index

    beams: List[Tuple[float, Tuple[str, ...]]] = [(0.0, ())]
    for stage in stages:
        grown: List[Tuple[float, Tuple[str, ...]]] = []
        for cost, assignment in beams:
            for t in legal_targets(stage, targets):
                c = cost + cluster_cost(stage.work, t, threads)
                for tensor, nbytes in stage.consumes.items():
                    src_idx = producers_before[stage.index].get(tensor)
                    if src_idx is None:
                        continue  # program input: host-resident everywhere
                    src = assignment[src_idx]
                    if src != t:
                        c += transfer_time(src, t, nbytes, transfer)
                grown.append((c, assignment + (t,)))
        grown.sort(key=lambda e: (e[0], e[1]))
        beams = grown[:beam_width]
    best_cost, best = beams[0]
    return list(best), best_cost
