"""Heterogeneous pipeline partitioning: one pipeline, three machines.

:func:`partition_pipeline` assigns each pipeline stage to one of the
``cpu``/``gpu``/``npu`` targets (beam search over per-stage analytical
costs, :mod:`repro.partition.search`), groups contiguous
same-target runs into partitions, compiles every partition through the
standard :func:`repro.core.optimize` pass for its target, and prices each
cut edge with the transfer model on the **exact** Presburger footprint of
the consumed region — ``bytes = count_points(readers' footprint) * 8``.

The result is a :class:`PartitionedSchedule`: per-partition
:class:`~repro.core.OptimizeResult`\\ s plus the host glue the interpreter
backend executes end-to-end (:func:`repro.partition.host.execute_partitioned`),
bit-identical to a single-target run.

Degeneracy guarantee: with one candidate target (or when the search puts
every stage on the same target) the single partition *is* the original
program object, compiled through the same ``cached_optimize`` path with
the same :class:`~repro.options.CompileOptions` — schedule, generated
code and cache fingerprint are bit-identical to a plain compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import OptimizeResult
from ..ir import Program
from ..machine import ITEMSIZE, analyze_optimized, program_cost, transfer_time
from ..options import CompileOptions, PartitionOptions
from ..service.driver import cached_optimize
from ..service.fingerprint import fingerprint_request
from .search import beam_assign, legal_targets, score_assignment, stage_infos


@dataclass(frozen=True)
class CutEdge:
    """One producer/consumer edge crossing a partition boundary."""

    tensor: str
    src: str                 # producer partition name
    dst: str                 # consumer partition name
    src_target: str
    dst_target: str
    nbytes: int              # exact footprint of the consumed region
    seconds: float           # transfer model's price for this edge

    def as_dict(self) -> Dict[str, object]:
        return {
            "tensor": self.tensor,
            "src": self.src,
            "dst": self.dst,
            "src_target": self.src_target,
            "dst_target": self.dst_target,
            "bytes": self.nbytes,
            "seconds": self.seconds,
        }


@dataclass
class Partition:
    """One contiguous run of same-target stages, compiled for that target."""

    name: str
    target: str
    statements: Tuple[str, ...]
    program: Program         # the sub-program this partition executes
    options: CompileOptions  # exactly what it compiled with
    result: OptimizeResult
    fingerprint: str         # the compile-cache key of this partition
    modeled_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "target": self.target,
            "statements": list(self.statements),
            "tile_sizes": list(self.result.tile_sizes or ()) or None,
            "fingerprint": self.fingerprint,
            "modeled_seconds": self.modeled_seconds,
        }


@dataclass
class PartitionedSchedule:
    """A multi-target schedule: partitions, cut edges, modeled totals."""

    program: Program
    options: PartitionOptions
    assignment: Dict[str, str]          # statement -> target name
    partitions: List[Partition]
    cuts: List[CutEdge]
    modeled: Dict[str, object]          # {"mixed": {...}, "single": {...}}
    search_estimate_seconds: float

    @property
    def targets_used(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for p in self.partitions:
            if p.target not in seen:
                seen.append(p.target)
        return tuple(seen)

    @property
    def is_degenerate(self) -> bool:
        """True when everything landed on one target (single partition)."""
        return len(self.partitions) == 1

    def summary(self) -> Dict[str, object]:
        """A JSON-able description (CLI ``--stats``, serve RPC payload)."""
        return {
            "program": self.program.name,
            "targets": list(self.options.target_names),
            "assignment": dict(self.assignment),
            "partitions": [p.as_dict() for p in self.partitions],
            "cuts": [c.as_dict() for c in self.cuts],
            "modeled": self.modeled,
            "search_estimate_seconds": self.search_estimate_seconds,
        }


def _resolve_partition_options(options, targets, removed) -> PartitionOptions:
    if removed:
        names = ", ".join(sorted(removed))
        raise TypeError(
            f"partition_pipeline() no longer accepts per-keyword "
            f"configuration ({names}); construct repro.PartitionOptions(...) "
            f"and pass it as options="
        )
    if options is None:
        opts = PartitionOptions()
    elif isinstance(options, PartitionOptions):
        opts = options
    else:
        raise TypeError(
            f"options must be a repro.PartitionOptions or None, got {options!r}"
        )
    if targets is not None:
        opts = opts.replace(targets=targets)
    return opts


def _contiguous_runs(
    program: Program, assignment: Sequence[str]
) -> List[Tuple[str, List[str]]]:
    runs: List[Tuple[str, List[str]]] = []
    for stmt, target in zip(program.statements, assignment):
        if runs and runs[-1][0] == target:
            runs[-1][1].append(stmt.name)
        else:
            runs.append((target, [stmt.name]))
    return runs


def _subprogram(program: Program, name: str, stmt_names: Sequence[str]) -> Program:
    """The Program a partition executes: its statements, their tensors,
    live-out = everything a later statement (or the pipeline) consumes."""
    stmts = [program.statement(s) for s in stmt_names]
    referenced: Dict[str, None] = {}
    for stmt in stmts:
        for t in stmt.tensors_read():
            referenced.setdefault(t)
        referenced.setdefault(stmt.tensor_written())
    tensors = {t: program.tensors[t] for t in referenced}
    last = max(program.statement_index(s) for s in stmt_names)
    consumed_later = {
        t
        for stmt in program.statements[last + 1 :]
        for t in stmt.tensors_read()
    }
    written_here = {stmt.tensor_written() for stmt in stmts}
    liveout = sorted(written_here & (consumed_later | set(program.liveout)))
    return Program(name, stmts, tensors, dict(program.params), liveout)


def _canonical_region(region):
    """Rename a footprint region's (fresh, per-statement) dims to a
    canonical spelling so regions from different consumers union cleanly."""
    dims = region.space.dims
    return region.rename_dims({d: f"d{i}" for i, d in enumerate(dims)})


def _normalize_assignment(
    program: Program, assignment, stages, popts: PartitionOptions
) -> List[str]:
    """Validate an explicit per-statement assignment (manual placement)."""
    if isinstance(assignment, Mapping):
        missing = [s.name for s in program.statements if s.name not in assignment]
        if missing:
            raise ValueError(f"assignment misses statements: {missing}")
        ordered = [assignment[s.name] for s in program.statements]
    else:
        ordered = list(assignment)
        if len(ordered) != len(program.statements):
            raise ValueError(
                f"assignment has {len(ordered)} entries for "
                f"{len(program.statements)} statements"
            )
    names = popts.target_names
    for stage, target in zip(stages, ordered):
        if target not in names:
            raise ValueError(
                f"assignment places {stage.name!r} on {target!r}, not one "
                f"of the candidate targets {names}"
            )
        if target not in legal_targets(stage, names):
            raise ValueError(
                f"statement {stage.name!r} has no {target!r} mapping "
                f"(in-place update); choose another target"
            )
    return ordered


def partition_pipeline(
    program: Program,
    options: Optional[PartitionOptions] = None,
    *,
    targets=None,
    assignment=None,
    params: Optional[Mapping[str, int]] = None,
    **removed,
) -> PartitionedSchedule:
    """Partition ``program`` across heterogeneous targets and compile it.

    All configuration travels in one :class:`repro.PartitionOptions`
    (``targets=`` is accepted as a convenience and overrides the bundle's
    target list).  ``assignment=`` pins an explicit statement-to-target
    placement (a mapping or a program-order sequence) instead of running
    the beam search — manual placement, still legality-checked.  Each
    partition compiles through the standard :func:`~repro.core.optimize`
    pass via ``cached_optimize``; the returned
    :class:`PartitionedSchedule` carries per-partition results,
    exact-footprint cut edges and the modeled mixed vs. single-target
    totals.
    """
    popts = _resolve_partition_options(options, targets, removed)
    params = dict(program.params, **(params or {}))

    stages = stage_infos(program, params)
    if assignment is None:
        assignment, est = beam_assign(
            stages,
            popts.target_names,
            popts.transfer,
            threads=popts.threads,
            beam_width=popts.beam_width,
        )
    else:
        assignment = _normalize_assignment(program, assignment, stages, popts)
        est = score_assignment(
            stages, assignment, popts.transfer, threads=popts.threads
        )
    runs = _contiguous_runs(program, assignment)

    partitions: List[Partition] = []
    for i, (target, stmt_names) in enumerate(runs):
        if len(runs) == 1:
            part_program = program  # degenerate: identical fingerprint
        else:
            part_program = _subprogram(
                program, f"{program.name}.p{i}", stmt_names
            )
        copts = popts.compile_options(target)
        result = cached_optimize(part_program, options=copts)
        fp = fingerprint_request(
            part_program, copts.target, copts.tile_sizes, copts.startup
        )
        work = analyze_optimized(result, params)
        partitions.append(
            Partition(
                name=f"p{i}",
                target=target,
                statements=tuple(stmt_names),
                program=part_program,
                options=copts,
                result=result,
                fingerprint=fp,
                modeled_seconds=program_cost(work, target, popts.threads),
            )
        )

    cuts = _cut_edges(program, assignment, runs, partitions, popts, params)

    compute = sum(p.modeled_seconds for p in partitions)
    transfer = sum(c.seconds for c in cuts)
    illegal_on: Dict[str, bool] = {
        t: any(t in s.target_illegal for s in stages)
        for t in popts.target_names
    }
    single: Dict[str, Optional[float]] = {}
    for t in popts.target_names:
        if illegal_on[t]:
            single[t] = None  # no legal all-on-t mapping (e.g. in-place on npu)
            continue
        ref = cached_optimize(program, options=popts.compile_options(t))
        single[t] = program_cost(analyze_optimized(ref, params), t, popts.threads)
    modeled = {
        "mixed": {
            "compute_seconds": compute,
            "transfer_seconds": transfer,
            "total_seconds": compute + transfer,
        },
        "single": single,
    }

    stmt_assignment = {
        stmt.name: t for stmt, t in zip(program.statements, assignment)
    }
    return PartitionedSchedule(
        program=program,
        options=popts,
        assignment=stmt_assignment,
        partitions=partitions,
        cuts=cuts,
        modeled=modeled,
        search_estimate_seconds=est,
    )


def _cut_edges(
    program: Program,
    assignment: Sequence[str],
    runs: Sequence[Tuple[str, Sequence[str]]],
    partitions: Sequence[Partition],
    popts: PartitionOptions,
    params: Mapping[str, int],
) -> List[CutEdge]:
    """Exact-footprint cut edges between partitions.

    For every statement consuming a tensor whose latest producer sits in
    an earlier partition, the consumed region (the statement's read
    footprint, accumulator included) joins that edge; the edge's bytes are
    the ``count_points`` of the union of its regions — exact even when
    consumer footprints overlap.
    """
    part_of: Dict[str, int] = {}
    for i, (_, stmt_names) in enumerate(runs):
        for s in stmt_names:
            part_of[s] = i

    producer: Dict[str, str] = {}  # tensor -> latest writer statement
    regions: Dict[Tuple[int, int, str], object] = {}
    for stmt in program.statements:
        j = part_of[stmt.name]
        for (_, tensor), access in stmt.read_relations().maps.items():
            writer = producer.get(tensor)
            if writer is None:
                continue  # pipeline input: host-resident
            i = part_of[writer]
            if i == j:
                continue
            region = _canonical_region(
                access.apply_to_set(stmt.domain).fix_params(params)
            )
            key = (i, j, tensor)
            regions[key] = (
                region if key not in regions else regions[key].union(region)
            )
        producer[stmt.tensor_written()] = stmt.name

    cuts: List[CutEdge] = []
    for (i, j, tensor), region in sorted(
        regions.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        nbytes = region.count_points() * ITEMSIZE
        src_t, dst_t = partitions[i].target, partitions[j].target
        cuts.append(
            CutEdge(
                tensor=tensor,
                src=partitions[i].name,
                dst=partitions[j].name,
                src_target=src_t,
                dst_target=dst_t,
                nbytes=nbytes,
                seconds=transfer_time(src_t, dst_t, nbytes, popts.transfer),
            )
        )
    return cuts
