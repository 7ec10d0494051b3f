"""Executable backend: interprets schedule trees over NumPy tensors.

Only :func:`make_store` and the store it fills import numpy, so a process
that reads :func:`ordered_events` (the validator) loads none.

The interpreter flattens the tree's executable loop nest
(:func:`repro.codegen.nest.scan`) into per-statement *streams*.  A stream
is an augmented integer set over ``(key dims..., statement dims...)``:

* every loop along the statement's path contributes a key dim, its
  variable (pinned ``k == row`` for point bands, ``k <= row < k + T`` with
  ``k`` stepping over tile origins for tile bands);
* sequence positions contribute constant key components;
* beneath an extension scope the added statements carry the extension
  relation's constraints, so their instances are exactly the per-tile
  images of relation (6), recomputation included.

Executing the program is then: enumerate every stream with
:func:`repro.presburger.fm.lex_points` (tile dims step over tile origins),
tag each instance with its key, sort, and run the statement bodies in key
order.  This is
semantically the code PPCG would emit from the same tree — loops are just
an ordering device — and is what the correctness tests compare against the
naive program order.

Re-executed (overlapped) instances run against the same storage; the
supported workloads are out-of-place or idempotent per instance, which the
paper's overlapped tiling requires anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..ir import Program, REDUCE, Statement, TensorStore
from ..presburger import Constraint
from ..presburger.fm import Unbounded, lex_points
from ..schedule import DomainNode
from .nest import Leaf, Loop, Nest, Seq, scan

KeyComponent = Tuple[str, object]  # ("const", int) or ("dim", aug_dim_name)


@dataclass
class Stream:
    """One statement's augmented instance set along one tree path."""

    stmt: Statement
    constraints: List[Constraint]
    key_template: List[KeyComponent]
    aug_dims: List[str]           # key dims, in template order
    steps: Dict[str, int]         # aug dim -> iteration step (tile size)

    def all_dims(self) -> List[str]:
        return self.aug_dims + list(self.stmt.dims)


class ExecutionError(RuntimeError):
    pass


def build_streams(
    tree: DomainNode, program: Program, params: Mapping[str, int]
) -> List[Stream]:
    """One stream per statement piece at each leaf of the tree's executable
    loop nest (:func:`repro.codegen.nest.scan`): its key reads off the path
    to the leaf, a constant per sequence position and a dim per loop."""
    streams: List[Stream] = []

    def flatten(node: Nest, template: List[KeyComponent], steps: Dict[str, int]) -> None:
        if isinstance(node, Leaf):
            aug = [val for kind, val in template if kind == "dim"]
            for piece in node.pieces:
                stmt = program.statement(piece.stmt)
                streams.append(
                    Stream(stmt, list(piece.system), list(template), list(aug), dict(steps))
                )
        elif isinstance(node, Loop):
            if node.size is not None:
                steps = {**steps, node.var: node.size}
            flatten(node.body, template + [("dim", node.var)], steps)
        elif isinstance(node, Seq):
            for i, child in enumerate(node.children):
                flatten(child, template + [("const", i)], steps)
        else:  # a mark or an extension scope: its body, under the same key
            flatten(node.body, template, steps)

    flatten(scan(tree, program, params), [], {})
    return streams


def _enumerate_stream(stream: Stream) -> Iterator[Tuple[tuple, Dict[str, int]]]:
    """Yield ``(key, env)`` for every instance of the stream, in lex order."""
    try:
        for point in lex_points(stream.constraints, stream.all_dims(), stream.steps):
            key = tuple(
                val if kind == "const" else point[val]
                for kind, val in stream.key_template
            )
            yield key, {d: point[d] for d in stream.stmt.dims}
    except Unbounded as e:
        raise ExecutionError(
            f"unbounded dimension {e.args[0]} while executing {stream.stmt.name}"
        ) from None


def ordered_events(
    tree: DomainNode, program: Program, params: Mapping[str, int]
) -> List[Tuple[tuple, int, Statement, Dict[str, int]]]:
    """Every instance the tree runs as ``(key, stream, statement, env)``, in
    execution order: all streams enumerated, sorted by key and, within one
    key, by stream.  An instance two overlapping pieces cover under one key
    appears once per piece."""
    events: List[Tuple[tuple, int, Statement, Dict[str, int]]] = []
    for si, stream in enumerate(build_streams(tree, program, params)):
        for key, env in _enumerate_stream(stream):
            events.append((key, si, stream.stmt, env))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def execute_tree(
    tree: DomainNode,
    program: Program,
    store: TensorStore,
    params: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Execute a schedule tree; returns per-statement executed-instance counts.

    Counts include recomputation (overlapped tiles), which tests use to
    verify the footprint arithmetic.
    """
    params = dict(program.params, **(params or {}))
    counts: Dict[str, int] = {}
    seen_at_key: set = set()
    for key, _si, stmt, env in ordered_events(tree, program, params):
        # Overlapping extension pieces may cover an instance more than once
        # under the same tile; execute it once per schedule-key context
        # (matching what generated code with a unioned iteration set does).
        fingerprint = (key, stmt.name, tuple(env[d] for d in stmt.dims))
        if fingerprint in seen_at_key:
            continue
        seen_at_key.add(fingerprint)
        _run_instance(stmt, env, store)
        counts[stmt.name] = counts.get(stmt.name, 0) + 1
    return counts


def _run_instance(stmt: Statement, env: Mapping[str, int], store: TensorStore) -> None:
    value = stmt.rhs.evaluate(env, store)
    idx = tuple(e.eval(env) for e in stmt.lhs.indices)
    if stmt.kind == REDUCE:
        store.accumulate(stmt.lhs.tensor, idx, value)
    else:
        store.write(stmt.lhs.tensor, idx, value)


def execute_naive(
    program: Program,
    store: TensorStore,
    params: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Reference execution in original program order (the 'naive' code)."""
    from ..presburger.enumerate import enumerate_set_points

    params = dict(program.params, **(params or {}))
    counts: Dict[str, int] = {}
    for stmt in program.statements:
        n = 0
        for env in enumerate_set_points(stmt.domain, params):
            _run_instance(stmt, env, store)
            n += 1
        counts[stmt.name] = n
    return counts


def make_store(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    seed: int = 0,
) -> TensorStore:
    """A store with deterministic contents for inputs and in-place tensors."""
    import numpy as np

    params = dict(program.params, **(params or {}))
    store = TensorStore(program.tensors, params)
    rng = np.random.default_rng(seed)
    for name in program.input_tensors():
        store.set_input(name, rng.uniform(0.1, 1.0, size=store[name].shape))
    # In-place pipelines (conv2d's quantisation) read tensors they also
    # write; give those deterministic initial contents too.
    written = {s.tensor_written() for s in program.statements}
    read = {t for s in program.statements for t in s.tensors_read()}
    for name in sorted((written & read) - set(program.input_tensors())):
        stable = sum(ord(c) for c in name)  # hash() is salted per process
        rng2 = np.random.default_rng(seed + stable)
        store.set_input(name, rng2.uniform(0.1, 1.0, size=store[name].shape))
    return store


def run_program(
    program: Program,
    tree: DomainNode,
    params: Optional[Mapping[str, int]] = None,
    seed: int = 0,
) -> Tuple[TensorStore, Dict[str, int]]:
    """Convenience: build a deterministic store and execute the tree."""
    params = dict(program.params, **(params or {}))
    store = make_store(program, params, seed)
    counts = execute_tree(tree, program, store, params)
    return store, counts
