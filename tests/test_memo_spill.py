"""Memo-table eviction, spill/load, and the cross-process warm-start.

Covers the generation-segmented eviction policy (hot entries survive a
rotation, cold ones age out, tables stay bounded), the snapshot/load
round-trip inside one process, the disk ``memos`` store of
:class:`~repro.service.cache.CompileCache`, and — the point of the whole
layer — a subprocess with a fresh symbol table that warm-starts from a
snapshot spilled by this process and produces byte-identical output.
"""

import os
import subprocess
import sys

from repro import CompileOptions
from repro.presburger import BasicMap, Constraint, LinExpr, MapSpace, memo
from repro.presburger.memo import MemoTable
from repro.service import CompileCache, cached_optimize
from repro.pipelines import conv2d

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

V = LinExpr.var


def tile_map(tile):
    space = MapSpace("T", ("t0",), "S", ("i",), ())
    return BasicMap(
        space,
        [
            Constraint.le(V("t0"), V("i")),
            Constraint.lt(V("i"), V("t0") + tile),
            Constraint.ge(V("i")),
            Constraint.lt(V("i"), 64),
        ],
    )


def access_map(shift):
    space = MapSpace("S", ("i",), "A", ("a0",), ())
    return BasicMap(space, [Constraint.eq(V("a0") - V("i") - shift)])


# -- generational eviction -------------------------------------------------


def test_table_stays_bounded_and_rotation_drops_cold_entries():
    t = MemoTable("t")
    for i in range(memo.CAP + 100):
        t.put(i, i)
    assert len(t) <= memo.CAP
    assert t.evictions > 0


def test_recently_hit_entries_survive_rotation():
    t = MemoTable("t")
    t.put("hot", 1)
    # Age "hot" into the old generation, then hit it to promote it back.
    for i in range(memo.CAP // 2):
        t.put(("filler-a", i), i)
    assert t.get("hot") == 1
    # As long as it keeps being hit within each rotation window, "hot"
    # survives rotations that drop the untouched filler.
    for i in range(memo.CAP // 2):
        t.put(("filler-b", i), i)
    assert t.get("hot") == 1
    for i in range(memo.CAP // 2):
        t.put(("filler-c", i), i)
    assert t.get("hot") == 1
    assert t.get(("filler-a", 0)) is memo.MISS  # cold entries aged out


def test_miss_then_put_then_hit_counts():
    t = MemoTable("t")
    assert t.get("k") is memo.MISS
    t.put("k", "v")
    assert t.get("k") == "v"
    assert (t.hits, t.misses, t.warm_hits) == (1, 1, 0)


# -- snapshot / load -------------------------------------------------------


def test_snapshot_load_round_trip_marks_warm_hits():
    t = MemoTable("t", spillable=True)
    t.put("a", 1)
    t.put("b", 2)
    snap = t.snapshot()
    fresh = MemoTable("t", spillable=True)
    assert fresh.load(snap) == 2
    assert fresh.get("a") == 1
    assert fresh.warm_hits == 1
    # A natively computed entry does not count as warm.
    fresh.put("c", 3)
    fresh.get("c")
    assert fresh.warm_hits == 1


def test_load_never_overwrites_resident_entries():
    t = MemoTable("t")
    t.put("k", "resident")
    assert t.load([("k", "spilled"), ("other", 1)]) == 1
    assert t.get("k") == "resident"


def test_module_snapshot_covers_only_spillable_tables():
    memo.clear_all()
    a = tile_map(8).apply_range(access_map(1))  # populates "apply_range"
    tile_map(8).reverse()  # populates "map_reverse" (not spillable)
    snap = memo.snapshot()
    assert "apply_range" in snap
    assert "map_reverse" not in snap
    memo.clear_all()
    assert memo.load_snapshot(snap) > 0
    # The reloaded entry is served on the next identical call.
    b = tile_map(8).apply_range(access_map(1))
    assert a == b
    assert memo.stats()["apply_range"]["warm_hits"] >= 1


# -- disk memos store ------------------------------------------------------


def test_cache_memo_store_round_trip(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    assert cache.get_memos("k" * 64) is None
    assert cache.stats.memo_misses == 1
    snap = {"apply_range": [(("key",), "value")]}
    cache.put_memos("k" * 64, snap)
    assert cache.get_memos("k" * 64) == snap
    assert cache.stats.memo_hits == 1
    info = cache.info()
    assert info["memo_entries"] == 1
    assert info["disk_entries"] == 0  # memos are not result entries


def test_cache_clear_selectors(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put("a" * 64, {"result": 1})
    cache.put_memos("b" * 64, {"t": [(1, 2)]})
    assert cache.clear(results=False, memos=True) == 1
    assert cache.get("a" * 64) is not None
    assert cache.get_memos("b" * 64) is None
    cache.put_memos("b" * 64, {"t": [(1, 2)]})
    assert cache.clear() == 2
    assert cache.info()["memo_entries"] == 0


def test_corrupt_memo_snapshot_is_evicted_not_fatal(tmp_path):
    cache = CompileCache(cache_dir=str(tmp_path))
    cache.put_memos("c" * 64, {"t": [(1, 2)]})
    path = cache.store.path("memos", "c" * 64)
    with open(path, "wb") as f:
        f.write(b"garbage")
    assert cache.get_memos("c" * 64) is None
    assert not os.path.exists(path)


# -- cross-process warm start ----------------------------------------------

CHILD = """
import sys
from repro import CompileOptions
from repro.codegen import print_tree
from repro.core import optimize
from repro.pipelines import conv2d
from repro.presburger import memo
from repro.service import CompileCache, cached_optimize

cache_dir = sys.argv[1]
prog = conv2d.build({"H": 48, "W": 48, "KH": 3, "KW": 3})
cache = CompileCache(cache_dir=cache_dir)
# Force a real compile (drop the spilled result) but keep the memo store.
cache.clear(results=True, memos=False)
warm = cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
assert cache.stats.memo_hits == 1, cache.stats
warm_hits = sum(v["warm_hits"] for v in memo.stats().values())
assert warm_hits > 0, memo.stats()
# Cold reference in this same (fresh-symtab) process.
memo.clear_all()
cold = optimize(prog, CompileOptions(target="cpu", tile_sizes=(16, 16)))
assert print_tree(warm.tree, prog) == print_tree(cold.tree, prog)
print("warm_hits", warm_hits)
"""


def test_spilled_memos_warm_start_a_fresh_process(tmp_path):
    prog = conv2d.build({"H": 48, "W": 48, "KH": 3, "KW": 3})
    cache = CompileCache(cache_dir=str(tmp_path))
    cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    assert cache.info()["memo_entries"] == 1

    # A different hash seed stresses entry portability: the child's symbol
    # table assigns fresh ids and its dict/set orders differ.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="77")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"warm_hits")


def test_memory_only_cache_never_spills(tmp_path):
    prog = conv2d.build({"H": 40, "W": 40, "KH": 3, "KW": 3})
    cache = CompileCache(cache_dir=str(tmp_path), persistent=False)
    cached_optimize(prog, options=CompileOptions(target="cpu", tile_sizes=(16, 16), cache=cache))
    assert cache.stats.memo_stores == 0
    assert cache.info()["memo_entries"] == 0
    assert os.listdir(tmp_path) == []
