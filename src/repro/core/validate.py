"""Schedule legality validation.

``validate_tree`` checks, by exact enumeration at concrete problem sizes,
that a schedule tree executes every dependence source before its target —
including the replicated instances that extension nodes introduce (a
recomputed instance must still happen before every consumer that reads
its value *in that tile context*).

This is the safety net behind every transformation in the repository: the
test suite validates each optimized tree on small problem instances, so a
bug in Algorithms 1-3 or in tree manipulation surfaces as a legality
violation rather than as silently wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Mapping, Optional, Tuple

from ..codegen.interp import ordered_events
from ..deps import Dependence, memory_deps
from ..ir import Program
from ..presburger.enumerate import enumerate_points
from ..schedule import DomainNode


@dataclass
class Violation:
    """One dependence executed in the wrong order (or not at all)."""

    dep: Dependence
    source_instance: Tuple[int, ...]
    target_instance: Tuple[int, ...]
    reason: str

    def __str__(self):
        return (
            f"{self.dep.kind} dependence {self.dep.source}{self.source_instance} "
            f"-> {self.dep.target}{self.target_instance} via {self.dep.tensor}: "
            f"{self.reason}"
        )


@dataclass
class ValidationReport:
    violations: List[Violation] = field(default_factory=list)
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"legal schedule ({self.checked_pairs} dependence pairs checked)"
        head = "\n".join(str(v) for v in self.violations[:10])
        return f"{len(self.violations)} violations:\n{head}"


def _execution_index(
    tree: DomainNode, program: Program, params: Mapping[str, int]
) -> Dict[str, Dict[Tuple[int, ...], Tuple[tuple, tuple]]]:
    """Per statement: instance -> (first execution key, last execution key).

    Replicated (extension) instances execute several times; a flow source
    must have executed at least once before its consumer (first <= key of
    target), while anti/output deps constrain every re-execution, so both
    extremes are recorded.
    """
    table: Dict[str, Dict[Tuple[int, ...], Tuple[tuple, tuple]]] = {}
    events = ordered_events(tree, program, params)
    for rank, (_key, _si, stmt, env) in enumerate(events):
        inst = tuple(env[d] for d in stmt.dims)
        per = table.setdefault(stmt.name, {})
        if inst in per:
            first, _last = per[inst]
            per[inst] = (first, (rank,))
        else:
            per[inst] = ((rank,), (rank,))
    return table


def validate_tree(
    tree: DomainNode,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    max_pairs_per_dep: int = 20000,
) -> ValidationReport:
    """Check all flow dependences against the tree's execution order."""
    params = dict(program.params, **(params or {}))
    report = ValidationReport()
    index = _execution_index(tree, program, params)
    deps = memory_deps(program, kinds=("flow",))
    for dep in deps:
        src_table = index.get(dep.source, {})
        dst_table = index.get(dep.target, {})
        pairs = 0
        for m in dep.relation.fix_params(params).pieces:
            wrapped = m.wrap()
            for point in islice(enumerate_points(wrapped), max_pairs_per_dep - pairs):
                pairs += 1
                src_inst = tuple(
                    point[d] for d in m.space.in_dims
                )
                dst_inst = tuple(
                    point[d] for d in m.space.out_dims
                )
                src = src_table.get(src_inst)
                dst = dst_table.get(dst_inst)
                if dst is None:
                    continue  # target instance eliminated (dead code)
                if src is None:
                    report.violations.append(
                        Violation(
                            dep, src_inst, dst_inst,
                            "source instance never executes",
                        )
                    )
                    continue
                # The value must be produced before its first consumption.
                if src[0] > dst[0]:
                    report.violations.append(
                        Violation(
                            dep, src_inst, dst_inst,
                            f"source first runs at {src[0]}, after target {dst[0]}",
                        )
                    )
                if pairs >= max_pairs_per_dep:
                    break
            if pairs >= max_pairs_per_dep:
                break
        report.checked_pairs += pairs
    return report

