"""The import graph reads top-down: the compiler half never imports the
service half, and inside it a package imports the ones before it.

Every file of the compiler packages is parsed (imports inside functions
count too) and each import that reaches up into ``service``, ``serve``,
``partition``, ``learn`` or ``data`` must be one of the edges listed in
``ALLOWED`` — so a new upward edge fails here instead of growing a cycle.
``COMPILER_ORDER`` does the same inside the compiler half, and
``test_no_block_is_spelled_twice`` keeps a block of code from being written
out a second time there.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
LOWER = (
    "presburger", "ir", "deps", "schedule", "scheduler", "core", "codegen",
    "machine", "pipelines", "baselines",
)
UPPER = ("service", "serve", "partition", "learn", "data")

#: file -> the upward ``(module, name)`` imports it may make; ``None``
#: allows the whole file (the autotuner orchestrates driver, dataset and
#: ranker by design).
ALLOWED = {
    "scheduler/autotune.py": None,
}


#: The compiler half, bottom-up: a package imports only those before it ...
COMPILER_ORDER = (
    "presburger", "ir", "deps", "schedule", "scheduler", "core", "codegen", "machine",
)
#: ... but for these: file -> the module (anything in it) or the one name it
#: may reach up for.  The validator replays the interpreter's event order,
#: the CCE printer prices its own instructions, the autotuner ranks
#: candidates by modeled time.
COMPILER_ALLOWED = {
    "core/validate.py": "repro.codegen.interp.ordered_events",
    "codegen/cce.py": "repro.machine.npu",
    "scheduler/autotune.py": "repro.machine",
}

#: Blocks that are still written twice under ``LOWER``, as ``files -> windows``.
SPELLED_TWICE = {
    # BasicMap.specialize / BasicSet.specialize: one memo preamble, two classes
    # with no common base
    ("presburger/basic_map.py", "presburger/basic_set.py"): 3,
    # Map.specialize / Set.specialize: the same, docstring included
    ("presburger/map_.py", "presburger/set_.py"): 1,
    # the keyword lists of the two ``ClusterWork(...)`` calls
    ("machine/cost.py",): 1,
}


def _imports(path: str, package: str):
    """``(module, name)`` for every import in ``path``, made absolute."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            for alias in node.names:
                yield module, alias.name


def _files(layers):
    """``(layer, path, path relative to the package)`` of every module."""
    for layer in layers:
        root = os.path.join(SRC, "repro", layer)
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, os.path.join(SRC, "repro"))
                    yield layer, path, rel.replace(os.sep, "/")


def _edges(layers, reaches_up):
    """``(file, module, name)`` of every import of a ``repro`` package
    that ``reaches_up(importing layer, imported package)``."""
    for layer, path, rel in _files(layers):
        package = "repro." + os.path.dirname(rel).replace("/", ".")
        for module, imported in _imports(path, package):
            parts = (module + "." + (imported or "")).split(".")
            if parts[0] == "repro" and reaches_up(layer, parts[1]):
                yield rel, module, imported


def _upward_edges():
    return _edges(LOWER, lambda layer, package: package in UPPER)


def test_compiler_packages_do_not_import_the_service_half():
    edges = list(_upward_edges())
    bad = [
        f"{rel}: {module}.{name}"
        for rel, module, name in edges
        if rel not in ALLOWED
        or (ALLOWED[rel] is not None and (module, name) not in ALLOWED[rel])
    ]
    assert not bad, "new upward import(s):\n" + "\n".join(bad)
    # The allowlist is exact: an edge that went away must leave it too.
    assert {rel for rel, _m, _n in edges} == set(ALLOWED)


def test_compiler_packages_import_downward():
    rank = {package: n for n, package in enumerate(COMPILER_ORDER)}
    edges = list(_edges(COMPILER_ORDER, lambda a, b: rank.get(b, -1) > rank[a]))
    bad = [
        f"{rel}: {module}.{name}"
        for rel, module, name in edges
        if COMPILER_ALLOWED.get(rel) not in (module, f"{module}.{name}")
    ]
    assert not bad, "new upward import(s):\n" + "\n".join(bad)
    assert {rel for rel, _m, _n in edges} == set(COMPILER_ALLOWED)


def test_the_machine_model_takes_only_the_buffers_from_codegen():
    """Its geometry comes from ``core.footprint``, where the representative
    tile is defined; what is promoted is ``codegen``'s to say."""
    edges = list(_edges(("machine",), lambda _layer, package: package == "codegen"))
    assert edges == [("machine/cost.py", "repro.codegen.promotion", "promoted_buffers")]


def _significant(path):
    """``(line number, stripped line)``, without blanks, comments and lines
    that are only a bracket, ``else:`` or ``pass``."""
    dull = {"(", ")", "[", "]", "{", "}", "),", "],", "},", "else:", "pass", '"""'}
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if line and not line.startswith("#") and line not in dull:
                yield n, line


def test_no_block_is_spelled_twice():
    """No 7 consecutive significant lines (of 180 characters or more) occur
    in two places of the compiler half."""
    seen = defaultdict(list)
    for _layer, path, rel in _files(LOWER):
        lines = list(_significant(path))
        for i in range(len(lines) - 6):
            text = "\n".join(line for _n, line in lines[i:i + 7])
            if len(text) >= 180:
                seen[text].append((rel, lines[i][0]))
    found = defaultdict(list)  # the files a block is in -> its windows
    for places in seen.values():
        if len(places) > 1:
            found[tuple(sorted({rel for rel, _n in places}))].append(places)
    report = [
        " = ".join(f"{rel}:{n}" for rel, n in places)
        for files, windows in found.items()
        if len(windows) != SPELLED_TWICE.get(files)
        for places in windows
    ]
    assert not report, "the same block in two places:\n" + "\n".join(report)
    # The allowlist is exact here too: a block that went away must leave it.
    assert {files: len(w) for files, w in found.items()} == SPELLED_TWICE
