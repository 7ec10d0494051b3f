"""The import graph reads top-down: the compiler half never imports the
service half.

Every file of the compiler packages is parsed (imports inside functions
count too) and each import that reaches up into ``service``, ``serve``,
``partition``, ``learn`` or ``data`` must be one of the edges listed in
``ALLOWED`` — so a new upward edge fails here instead of growing a cycle.
"""

from __future__ import annotations

import ast
import os

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


def _upward_edges():
    for layer in LOWER:
        root = os.path.join(SRC, "repro", layer)
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, os.path.join(SRC, "repro"))
                package = "repro." + os.path.dirname(rel).replace(os.sep, ".")
                for module, imported in _imports(path, package):
                    parts = (module + "." + (imported or "")).split(".")
                    if parts[0] == "repro" and parts[1] in UPPER:
                        yield rel.replace(os.sep, "/"), module, imported


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
