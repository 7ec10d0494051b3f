"""The import graph reads top-down: the compiler half never imports the
service half, and inside it a package imports the ones before it.

Every file of the compiler packages is parsed (imports inside functions
count too) and each import that reaches up into ``service`` or ``serve``
must be one of the edges listed in ``ALLOWED`` — so a new upward edge fails
here instead of growing a cycle.
``COMPILER_ORDER`` does the same inside the compiler half, and
``test_no_block_is_spelled_twice`` keeps a block of code from being written
out a second time there, and ``test_codegen_walks_points_through_the_one_scan``
keeps the interpreter from building a second Fourier–Motzkin tower.
``test_every_public_def_has_a_reader`` keeps a public function or class
that only its own test reads out of ``src/repro``, and
``test_every_public_method_has_a_reader`` does the same for methods.
The checks at the end import in a fresh interpreter and read
``sys.modules``: the package root and the client load no compiler, and
nothing but the interpreter's store loads numpy.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LOWER = (
    "presburger", "ir", "deps", "schedule", "scheduler", "core", "codegen",
    "machine", "pipelines", "baselines",
)
UPPER = ("service", "serve")

#: file -> the upward ``(module, name)`` imports it may make: the autotuner
#: sends its candidates through the batch driver.
ALLOWED = {
    "scheduler/autotune.py": {
        ("repro.service.driver", "CompileRequest"),
        ("repro.service.driver", "compile_batch"),
    },
}


#: The compiler half, bottom-up: a package imports only those before it ...
COMPILER_ORDER = (
    "presburger", "ir", "deps", "schedule", "scheduler", "core", "codegen", "machine",
)
#: ... but for these: file -> the module (anything in it) or the one name it
#: may reach up for.  The validator replays the interpreter's event order,
#: the autotuner ranks candidates by modeled time.
COMPILER_ALLOWED = {
    "core/validate.py": "repro.codegen.interp.ordered_events",
    "scheduler/autotune.py": "repro.machine",
}

#: Blocks that are still written twice under ``LOWER``, as ``files -> windows``:
#: none since the specialize memo preambles went.
SPELLED_TWICE = {}

#: The names each ``codegen/`` module takes from ``repro.presburger.fm``.
#: A walk over integer points is ``lex_points``, so none takes the pieces
#: of a tower (``TOWER``) to build its own.  ``promotion.py`` eliminates
#: one dim at a time to test that a projection is exact: no walk.
FROM_FM = {
    "codegen/cbackend.py": {"projected_bounds"},
    "codegen/interp.py": {"Unbounded", "lex_points"},
    "codegen/printer.py": {"projected_bounds"},
    "codegen/promotion.py": {
        "eliminate_symbols", "implied_by_intervals", "interval_bounds",
        "projected_bounds", "rational_feasible",
    },
}
TOWER = {"eliminate_symbol", "eliminate_symbols", "symbol_bounds", "eval_bounds"}

#: Where a public def of ``src/repro`` must be read from.
READERS = ("src", "benchmarks", "bench", "examples")

#: Public defs that only tests read, as ``file:name -> why``: each is a tool
#: the tests use to check other code, not the subject of its own test.
KEEP = {
    "core/validate.py:validate_tree": "the legality check run on compiled trees",
    "presburger/parse.py:parse_map": "the text form test inputs are written in",
    "presburger/parse.py:parse_union_map": "the text form test inputs are written in",
    "presburger/parse.py:parse_union_set": "the text form test inputs are written in",
    "codegen/cbackend.py:compiler_available": "the skip guard of the tests that run gcc",
    "service/cache.py:reset_default_cache": "resets process-wide state between tests",
}

#: Public methods that nothing under ``READERS`` names, as
#: ``file:Class.name -> why``.
KEEP_METHODS = {
    "service/store.py:_RestrictedUnpickler.find_class": "pickle calls it",
    "machine/cost.py:ProgramWork.total_ops": "a tool test_cost_internals checks the model with",
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
        if (module, name) not in ALLOWED.get(rel, ())
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


def test_codegen_walks_points_through_the_one_scan():
    found = defaultdict(set)
    for _layer, path, rel in _files(("codegen",)):
        package = "repro." + os.path.dirname(rel).replace("/", ".")
        for module, name in _imports(path, package):
            if module == "repro.presburger.fm" or (module, name) == ("repro.presburger", "fm"):
                found[rel].add(name or module)
    assert dict(found) == FROM_FM
    assert not TOWER & FROM_FM["codegen/interp.py"]


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


def _py_files(root):
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _names_read(readers):
    """name -> ``{(path, line)}`` where a file under ``readers`` names it,
    leaving out the ``__init__`` imports that re-export a def."""
    read = defaultdict(set)
    for root in readers:
        for path in _py_files(root):
            reexports = os.path.basename(path) == "__init__.py"
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    read[name].add((path, node.lineno))
    return read


def _unread(package, readers, defs):
    """``file:label`` of each ``(path, label, node)`` in ``defs`` whose name
    is named nowhere under ``readers`` outside the def itself."""
    read = _names_read(readers)
    unread = []
    for path, label, node in defs:
        body = range(node.lineno, node.end_lineno + 1)
        if all(p == path and n in body for p, n in read[node.name]):
            rel = os.path.relpath(path, package).replace(os.sep, "/")
            unread.append(f"{rel}:{label}")
    return unread


def _parsed(package):
    for path in _py_files(package):
        with open(path, encoding="utf-8") as f:
            yield path, ast.parse(f.read(), path)


def unread_public_defs(package, readers):
    """``file:name`` (relative to ``package``) of every public top-level
    function or class under ``package`` that no file under ``readers``
    names, outside the def itself and the ``__init__`` imports that
    re-export it."""
    defs = [
        (path, node.name, node)
        for path, tree in _parsed(package)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
    ]
    return _unread(package, readers, defs)


def unread_public_methods(package, readers):
    """``file:Class.name`` of every public method of a class under
    ``package`` that no file under ``readers`` names outside its own body."""
    defs = [
        (path, f"{cls.name}.{node.name}", node)
        for path, tree in _parsed(package)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_"
    ]
    return _unread(package, readers, defs)


def test_every_public_def_has_a_reader():
    """A public def that only tests read is either a tool the tests check
    other code with (``KEEP``) or dead code kept alive by its own test."""
    package = os.path.join(SRC, "repro")
    readers = [os.path.join(ROOT, r) for r in READERS]
    unread = unread_public_defs(package, readers)
    bad = sorted(set(unread) - set(KEEP))
    assert not bad, "public defs nothing reads:\n" + "\n".join(bad)
    # The allowlist is exact: a kept def that gained a reader leaves it.
    assert set(unread) == set(KEEP)


def test_every_public_method_has_a_reader():
    """A public method nothing reads is dead code, unless something outside
    the package calls it (``KEEP_METHODS``)."""
    package = os.path.join(SRC, "repro")
    readers = [os.path.join(ROOT, r) for r in READERS]
    unread = unread_public_methods(package, readers)
    bad = sorted(set(unread) - set(KEEP_METHODS))
    assert not bad, "public methods nothing reads:\n" + "\n".join(bad)
    assert set(unread) == set(KEEP_METHODS)


def test_an_unread_def_is_reported(tmp_path):
    """The scan above on a package of four defs: one read by a sibling, one
    private, one kept and one that nothing reads."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import kept, read, unread\n")
    (package / "mod.py").write_text(
        "def read():\n    return 1\n\n\n"
        "def unread():\n    return unread\n\n\n"
        "def kept():\n    return 2\n\n\n"
        "def _private():\n    return 3\n"
    )
    (package / "user.py").write_text("from .mod import read\n\nVALUE = read()\n")
    keep = {"mod.py:kept": "a tool the tests use"}
    unread = unread_public_defs(str(package), [str(package)])
    assert sorted(set(unread) - set(keep)) == ["mod.py:unread"]
    assert set(keep) <= set(unread)


def test_an_unread_method_is_reported(tmp_path):
    """The method scan on a class of a read, a recursive, a private and a
    dunder method: only the one that names itself alone is reported."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self._hidden()\n\n"
        "    def _hidden(self):\n        return 0\n\n"
        "    def read(self):\n        return 1\n\n"
        "    def depth(self):\n        return self.depth()\n\n\n"
        "VALUE = Box().read()\n"
    )
    assert unread_public_methods(str(package), [str(package)]) == ["mod.py:Box.depth"]


# -- what a process imports --------------------------------------------------


def _run(code: str) -> str:
    """``code``'s stdout, run in a fresh interpreter against ``src``."""
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "import sys; print(sorted({'numpy', 'repro.core'} & set(sys.modules)))"


def test_the_package_root_and_the_client_load_no_compiler():
    for module in ("repro", "repro.serve.client", "repro.serve.protocol"):
        assert _run(f"import {module}; {LOADED}") == "[]\n", module


def test_compiling_tuning_costing_and_printing_load_no_numpy(tmp_path):
    out = _run(
        "from repro.api import (CompileCache, CompileOptions, autotune_tile_sizes,\n"
        "    cached_optimize, get_workload)\n"
        "from repro.codegen import print_tree\n"
        "from repro.machine import analyze_optimized\n"
        "program = get_workload('harris', 64)\n"
        f"cache = CompileCache({str(tmp_path)!r})\n"
        "autotune_tile_sizes(program, candidates=(8, 16),\n"
        "                    options=CompileOptions(cache=cache))\n"
        "result = cached_optimize(program, CompileOptions(tile_sizes=(8, 8), cache=cache))\n"
        "analyze_optimized(result)\n"
        "print_tree(result.tree, program)\n"
        "import sys; print('numpy' in sys.modules)\n"
    )
    assert out == "False\n"


def test_the_interpreter_loads_numpy_when_it_makes_a_store():
    out = _run(
        "import sys\n"
        "from repro import CompileOptions, optimize\n"
        "from repro.codegen import execute_naive, make_store, run_program\n"
        "from repro.workloads import get_workload\n"
        "program = get_workload('harris', 16)\n"
        "result = optimize(program, CompileOptions(tile_sizes=(8, 8)))\n"
        "print('numpy' in sys.modules)\n"
        "naive = make_store(program)\n"
        "print('numpy' in sys.modules)\n"
        "execute_naive(program, naive)\n"
        "store, _counts = run_program(program, result.tree)\n"
        "print(all((store[t] == naive[t]).all() for t in program.liveout))\n"
    )
    assert out == "False\nTrue\nTrue\n"


def test_every_lazy_reexport_resolves_and_is_listed():
    out = _run(
        "import repro, repro.codegen\n"
        "for package in (repro, repro.codegen):\n"
        "    listed = set(dir(package))\n"
        "    for name in package.__all__:\n"
        "        assert name in listed and getattr(package, name) is not None, name\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


def test_a_numpy_dtype_and_the_default_fingerprint_alike():
    out = _run(
        "import numpy as np\n"
        "from repro.ir import Tensor\n"
        "from repro.ir.fingerprint import canonical_tensor\n"
        "default, numpy = Tensor('A', ('N',)), Tensor('A', ('N',), dtype=np.float64)\n"
        "print(canonical_tensor(default) == canonical_tensor(numpy),\n"
        "      canonical_tensor(default)['dtype'],\n"
        "      canonical_tensor(Tensor('A', ('N',), dtype=np.float32))['dtype'])\n"
    )
    assert out == "True <f8 <f4\n"
