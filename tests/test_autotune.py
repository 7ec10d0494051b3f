"""Tests for the tile-size auto-tuner."""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from repro import CompileOptions
from repro.codegen.printer import print_tree
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import local_laplacian, unsharp_mask
from repro.presburger import memo
from repro.scheduler.autotune import (
    TuneResult,
    _combinations,
    autotune_tile_sizes,
    liveout_extent_bounds,
)
from repro.workloads import build_workload
from tests.test_determinism import ALL_WORKLOADS

#: The grid ``sweep_rows`` tunes over: 9 points per workload and target.
GOLDEN_GRID = (8, 16, 32)

#: What an exhaustive sweep answered at 1759c1d, the last commit with a
#: learned ranker beside it: ``(workload, target)`` -> the sha256[:16] of the
#: sorted-key JSON of its sorted ``evaluations`` and ``failures`` and its
#: ``best_sizes`` over ``GOLDEN_GRID``, serial and uncached, every
#: ``ALL_WORKLOADS`` entry at its size there.  ``sweep_rows`` computes them.
#: atax, bicg and mvt share rows: their grids cost the same.
AT_PARENT = {
    ("bilateral_grid", "cpu"): "8b0f219a68fb3b1e",
    ("bilateral_grid", "gpu"): "0eb963bbc1201d62",
    ("camera_pipeline", "cpu"): "36e6c1611da57aee",
    ("camera_pipeline", "gpu"): "2bb75ff55df16066",
    ("harris", "cpu"): "dd4f303813b3a70f",
    ("harris", "gpu"): "2cd1b297d93acfba",
    ("local_laplacian", "cpu"): "24a87b0dd17a2b9d",
    ("local_laplacian", "gpu"): "3f96b97108d7a5fd",
    ("multiscale_interp", "cpu"): "d70c9164dff01404",
    ("multiscale_interp", "gpu"): "d84e5dc260ac1549",
    ("unsharp_mask", "cpu"): "0bf583015d938f91",
    ("unsharp_mask", "gpu"): "4a161864e5fe3027",
    ("2mm", "cpu"): "5df183aa99bcd042",
    ("2mm", "gpu"): "7291e7944903bbfd",
    ("3mm", "cpu"): "1ecb9e3c6e5940a7",
    ("3mm", "gpu"): "ab9cd232d12a7efe",
    ("atax", "cpu"): "5de202f5ab1effe7",
    ("atax", "gpu"): "2071ea4bc1f4f50e",
    ("bicg", "cpu"): "cd8ef5184ba7b74e",
    ("bicg", "gpu"): "2071ea4bc1f4f50e",
    ("covariance", "cpu"): "d39bb5a2aa560e5e",
    ("covariance", "gpu"): "f3909627b2e637ea",
    ("doitgen", "cpu"): "0c20e870ee6029cb",
    ("doitgen", "gpu"): "3ed1616c965d0893",
    ("gemver", "cpu"): "2f373ef87d413fa9",
    ("gemver", "gpu"): "8a15fecc814b241d",
    ("mvt", "cpu"): "cd8ef5184ba7b74e",
    ("mvt", "gpu"): "2071ea4bc1f4f50e",
    ("conv2d", "cpu"): "646a3a5b4a517150",
    ("conv2d", "gpu"): "58c917a1c75d4e69",
}


def _sweep_digest(program, target):
    tuned = autotune_tile_sizes(
        program, CompileOptions(target=target, mode="serial"), candidates=GOLDEN_GRID
    )
    row = {
        "evaluations": sorted([list(s), t] for s, t in tuned.evaluations.items()),
        "failures": sorted([list(s), why] for s, why in tuned.failures.items()),
        "best_sizes": list(tuned.best_sizes),
    }
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


def sweep_rows():
    """``AT_PARENT`` as this checkout computes it."""
    rows = {}
    for name, size in ALL_WORKLOADS:
        program = build_workload(name, size)
        for target in ("cpu", "gpu"):
            rows[name, target] = _sweep_digest(program, target)
    return rows


class TestTheSweepIsTheParents:
    def test_in_process(self):
        assert sweep_rows() == AT_PARENT

    def test_in_a_fresh_process_under_another_hash_seed(self):
        child = (
            "import json; from tests.test_autotune import sweep_rows; "
            "print(json.dumps(list(sweep_rows().values())))"
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(
            os.environ, PYTHONHASHSEED="42",
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], cwd=root, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert dict(zip(AT_PARENT, json.loads(proc.stdout))) == AT_PARENT


#: The programs ``code_rows`` compiles over ``CODE_GRID``: the six of the
#: benchmark's ``tune_sweep`` at its sizes, camera_pipeline, and a
#: three-block local_laplacian, whose deep chain splits into clusters on
#: the recompute ratio (the 99-stage one takes half a minute a target).
CODE_PROGRAMS = [
    ("harris", 512),
    ("unsharp_mask", 512),
    ("bilateral_grid", 512),
    ("conv2d", 256),
    ("2mm", 256),
    ("covariance", 256),
    ("camera_pipeline", 512),
    ("local_laplacian", 64),
]

#: The benchmark's tile-size grid, 8..128 in both dimensions.
CODE_GRID = tuple(itertools.product((8, 16, 32, 64, 128), repeat=2))

#: What every candidate of a 5x5 sweep compiled to at 385f0eb:
#: ``(program, target)`` -> per ``CODE_GRID`` point, sha256[:16] of its
#: ``print_tree`` and the ``repr`` of its ``cpu_time`` at 32 threads.
#: ``code_rows`` computes them.
CODE_AT_PARENT = {
    ('harris', 'cpu'): (
        "6dc615e44dd0ecdf", "12346ec2ad375dd0", "6eafbd2490da93e0", "1a2967507a3eb6da",
        "5391feafe9084801", "12e6b83c432f6953", "b0f9ee05cc09bd2f", "705cb8bb117a7137",
        "14e597358b282173", "44aca52d0f3117aa", "717c7de7f207d54b", "1a16291f47bb8c42",
        "b98b6388e3d8ed7b", "7139b8fbbe4c7887", "842a564ca1286885", "ae5e6e36ceee230f",
        "ceba3cb15690c8fe", "771e6c2c8015f0b5", "cac85795f64d4e8a", "8535ee9b4b42658a",
        "a471189ab665a47d", "c92c3702ee2d318b", "527a6450cb1642c9", "e5edd23e6f94e304",
        "e2f8c7cde29d74af",
    ),
    ('harris', 'gpu'): (
        "6dc615e44dd0ecdf", "12346ec2ad375dd0", "6eafbd2490da93e0", "1a2967507a3eb6da",
        "5391feafe9084801", "12e6b83c432f6953", "b0f9ee05cc09bd2f", "705cb8bb117a7137",
        "14e597358b282173", "c01e37de44b5c1ff", "717c7de7f207d54b", "1a16291f47bb8c42",
        "b98b6388e3d8ed7b", "c87cedd7bb69fff0", "63620eb7420f7f8e", "ae5e6e36ceee230f",
        "ceba3cb15690c8fe", "e21dd5694253e4c8", "c9d232f7e3254d60", "06146dc95dc6fe8c",
        "a471189ab665a47d", "1bc04588cc097af7", "0a122195f4c5c319", "5a0806fb3afd20d5",
        "cb60d16d8e3b608d",
    ),
    ('unsharp_mask', 'cpu'): (
        "e35d804738e67d96", "bf08c1e64524fbed", "cc293284bcab4349", "a965b45281926660",
        "45f8165f37e5b2de", "b9a05456ba619752", "b0802025f32e45a2", "a64d09091740c76c",
        "416ec909583e18f9", "fcd244edeee8de59", "10c5575c7803dc1c", "70abfa7ca4ebe663",
        "350e5289d716f8e0", "7c560f3eecc8659f", "a5763f8654e3262b", "724e43c335ad6836",
        "4db7e2fa8b1cfd4f", "b937ad1ee520518d", "df4870b9ec5f7ac3", "4ae41a486c8fd507",
        "de51080514fa8a46", "fad04dbb6a4cc590", "09ae22d6419ce20a", "001f6ae210287a05",
        "d76140ee14428d89",
    ),
    ('unsharp_mask', 'gpu'): (
        "e35d804738e67d96", "bf08c1e64524fbed", "cc293284bcab4349", "a965b45281926660",
        "45f8165f37e5b2de", "b9a05456ba619752", "b0802025f32e45a2", "a64d09091740c76c",
        "416ec909583e18f9", "fcd244edeee8de59", "10c5575c7803dc1c", "70abfa7ca4ebe663",
        "350e5289d716f8e0", "7c560f3eecc8659f", "a5763f8654e3262b", "724e43c335ad6836",
        "4db7e2fa8b1cfd4f", "b937ad1ee520518d", "df4870b9ec5f7ac3", "4ae41a486c8fd507",
        "de51080514fa8a46", "fad04dbb6a4cc590", "09ae22d6419ce20a", "001f6ae210287a05",
        "c9d69e960b57e9c2",
    ),
    ('bilateral_grid', 'cpu'): (
        "ce73afbb8507c564", "1e0eca9b541cce6e", "b574b64c3d2446dd", "a78918b067308035",
        "47335e1532e9c63a", "2fe5f09af5e5d226", "fd725990edffc1ec", "2554736bfe056dab",
        "5cc51fdeab2fbfa1", "0eb4662265dc9b2e", "71485a81f365fcaf", "801c78387f9ba8e3",
        "5fcf64b7ea2f14fd", "d6d34c490a8a898a", "f0b7a58a85f84778", "cfbb44ae9489fdaf",
        "c21338f8e054d751", "2d535d8bf0caf3e4", "af8f121c761a6af2", "68a36ebae93f6896",
        "ebb1ad8882ff55d5", "fdf3cb8ec843a843", "7404b06eb7a11b00", "e829dce0ee417bb7",
        "f999a86870eaca1f",
    ),
    ('bilateral_grid', 'gpu'): (
        "ce73afbb8507c564", "1e0eca9b541cce6e", "b574b64c3d2446dd", "a78918b067308035",
        "47335e1532e9c63a", "2fe5f09af5e5d226", "fd725990edffc1ec", "2554736bfe056dab",
        "5cc51fdeab2fbfa1", "0eb4662265dc9b2e", "71485a81f365fcaf", "801c78387f9ba8e3",
        "5fcf64b7ea2f14fd", "d6d34c490a8a898a", "f0b7a58a85f84778", "cfbb44ae9489fdaf",
        "c21338f8e054d751", "2d535d8bf0caf3e4", "af8f121c761a6af2", "68a36ebae93f6896",
        "ebb1ad8882ff55d5", "fdf3cb8ec843a843", "7404b06eb7a11b00", "e829dce0ee417bb7",
        "60d3491fdcec8fd0",
    ),
    ('conv2d', 'cpu'): (
        "a01c698f213a3ee3", "c71a55f65f7004fa", "73bdb578f6792f12", "157edfc4e98d7397",
        "f0008563fc28ab3a", "369c4ac73b37c746", "fa2c6fb0c3eefcdc", "ec439a4926356b2d",
        "9296110d6bba4061", "7fbab4ea631214ff", "85d710489eb0e826", "2aa574488573dea7",
        "c1cb25d417b7aec1", "8dad1fdcb7ff2659", "b6c086c8357304fb", "a985fbffb4e97338",
        "ffd6b8e90e32f108", "57c3f35a296cb93c", "de9ca6f689eb6931", "72c1719970d8868f",
        "64bbdcedb748360e", "3b19195783eabc00", "448ac7964d463e9b", "0c3c2e914e69a264",
        "c923dd80f9d3d168",
    ),
    ('conv2d', 'gpu'): (
        "a01c698f213a3ee3", "c71a55f65f7004fa", "73bdb578f6792f12", "157edfc4e98d7397",
        "f0008563fc28ab3a", "369c4ac73b37c746", "fa2c6fb0c3eefcdc", "ec439a4926356b2d",
        "9296110d6bba4061", "7fbab4ea631214ff", "85d710489eb0e826", "2aa574488573dea7",
        "c1cb25d417b7aec1", "8dad1fdcb7ff2659", "b6c086c8357304fb", "a985fbffb4e97338",
        "ffd6b8e90e32f108", "57c3f35a296cb93c", "de9ca6f689eb6931", "72c1719970d8868f",
        "64bbdcedb748360e", "3b19195783eabc00", "448ac7964d463e9b", "0c3c2e914e69a264",
        "9e4f15c1d8259855",
    ),
    ('2mm', 'cpu'): (
        "c6303810076e24d5", "58d0dad392528343", "4e18b3ec78bf5cd8", "56ea4cd976def24d",
        "4b35b6c4718b0f8f", "c59da5b816a714d5", "47c30412cf843bfa", "adfcba406c353361",
        "34d03dde1dc600ef", "8daf805ae3d5a6f1", "a90a51b1c6d0e90f", "2d31cff5574c8812",
        "e4f745c7e3e2eefc", "1b06f14bd15fd208", "0c93f2c552ce4b36", "84d7192d42fbf505",
        "0488d9c4d0952e7f", "f80578c08e6c77b4", "a1dba646e260ad41", "ffcf0f3973ba87dd",
        "1617b14b86d2eb3d", "e92041ce2020e589", "00c8f177fa83066f", "ac0494225ed11b27",
        "e341a61ef6da1b5b",
    ),
    ('2mm', 'gpu'): (
        "c6303810076e24d5", "58d0dad392528343", "4e18b3ec78bf5cd8", "56ea4cd976def24d",
        "4b35b6c4718b0f8f", "c59da5b816a714d5", "47c30412cf843bfa", "adfcba406c353361",
        "34d03dde1dc600ef", "8daf805ae3d5a6f1", "a90a51b1c6d0e90f", "2d31cff5574c8812",
        "e4f745c7e3e2eefc", "1b06f14bd15fd208", "0c93f2c552ce4b36", "84d7192d42fbf505",
        "0488d9c4d0952e7f", "f80578c08e6c77b4", "a1dba646e260ad41", "ffcf0f3973ba87dd",
        "1617b14b86d2eb3d", "e92041ce2020e589", "00c8f177fa83066f", "ac0494225ed11b27",
        "e341a61ef6da1b5b",
    ),
    ('covariance', 'cpu'): (
        "701a47e4982ab63e", "fdc5022993751092", "d00c6f0c408aa1a5", "ab15de34a2b224d6",
        "8c7cdb8cab3e465e", "e9f70624e5de1378", "c8ec1e8c0ee6e4ae", "0cf52b6ba236cd49",
        "dd6385bb81189c2c", "10d9e9c20d4ec4cf", "c4041785eabfb6af", "e2c3a635b4d2a1a0",
        "d6f9e4fae7c60cb5", "44c5168ebc8e6cd2", "81d734d31b00875b", "23dac2c99446a079",
        "62287fbd748ac901", "d739a2a27a345092", "aa91854a90ea5421", "31aa7a94629d0a21",
        "6b63b513aa99a3a0", "12469a14da577be8", "bc6874b9380cbdff", "04a529d3e338a8fb",
        "3e51cef75e69e30d",
    ),
    ('covariance', 'gpu'): (
        "8749e1cda0f49b5c", "772690bab0637631", "95327da17618b634", "e9016ae2f3b80edf",
        "750d3656b5021654", "fb4457dc9262ac55", "7235b95d7e7937e9", "78a95492a27f2d29",
        "da5e7ca352c7c093", "563cfbfdb2390df4", "c4b960103be43c97", "fa569c8f21427ec0",
        "5cb95b5cda3966b2", "0c90e7e23178502e", "44670b94bbafa60f", "0796767317272ecc",
        "7ed4e3dbed7d202d", "f2d595501949088e", "223eab8b2b6fa37b", "51b6f88485dfa16e",
        "ad130eb11122be9e", "afd3b9820038072c", "ee7216441446d3eb", "2951df4cc5e12fc1",
        "4601bfc040d78f7c",
    ),
    ('camera_pipeline', 'cpu'): (
        "ed623b26bc469206", "a9ef7fa7593635de", "47040fd584c684c0", "a1390245b5650d58",
        "c16ffc979be90e85", "1971ba418353d6f6", "25c3b6395bd43994", "f30de713cd4620fc",
        "4303ae2a97f95410", "d4c1bd39d9d1e332", "dbc1e0058012f45b", "09e02c14ab5fd6db",
        "6ce00e7c7905f7ee", "db9a5150ff71fe82", "fc3d76bc58028481", "eb29af1f7cffa264",
        "89e082f569e22b75", "583b0cad34629482", "854722350950e242", "a278bf8d6668dec8",
        "195c809b19735bba", "f780dd218c8a795c", "f562148735d18c30", "ec1323a8fcdf1cd8",
        "6d8e7f376f419464",
    ),
    ('camera_pipeline', 'gpu'): (
        "ed623b26bc469206", "a9ef7fa7593635de", "47040fd584c684c0", "84cf344e20ad98fd",
        "cc5c560de49745ac", "1971ba418353d6f6", "25c3b6395bd43994", "786b77af1fe32b28",
        "5d18087a4f4dc95b", "948e8b108ac30c48", "dbc1e0058012f45b", "5ac0a3507eb08b4c",
        "417dc57aef535c26", "3d9f5f06d73fc2ef", "9f6ea2ffb57aeabe", "0045f669a51782da",
        "5b7cb3c36031de8f", "0ed795d6b2b20fb6", "a77458d895cf05f8", "19e963e973115004",
        "83b9e926891540b5", "1cbf3a7fe3d4a583", "9c83575dfa1bcfca", "b00f81612733a2e1",
        "824087fa3b165c92",
    ),
    ('local_laplacian', 'cpu'): (
        "3cf6fd72baaebd2a", "a9ab5b18f2880e70", "d2d22cda0dfa31aa", "ad53b16e118c030a",
        "74b1b847b0f1e0ef", "29b4996c2c2fa4aa", "7149725a034c4c06", "c149e846f5b3a60b",
        "edd3b4834e7d07b8", "d49578d35cc4095b", "b1dc2a14e35c43a6", "bf0ad4b3f0e73e81",
        "79396ef7466b85fb", "ee592e7e7001b12b", "14b341afd9d5ab7f", "d720dcf5f789493d",
        "9d063c65f6c5042b", "d6b80a3b6494b404", "83f892845dabfe5d", "5cee398dc2202f47",
        "9347012a7e78c05e", "9cebec8aa0a89fd2", "344ec0a1aa4a4981", "55bf756c325f7530",
        "7ac78a56a265eafc",
    ),
    ('local_laplacian', 'gpu'): (
        "3cf6fd72baaebd2a", "f0118faec7e040d7", "4ef67c7ef68eb42c", "f4ff9e8a93747b68",
        "4d00234526214327", "6db740aec8b92ccc", "9dce63b28b287d10", "7a143dbeb02e3ee1",
        "3c7883b58fe8de17", "31d309085e813264", "c7e89793fa6340e0", "72b71bef59e2b7d5",
        "27125974eaa4771d", "26a29fcef3f76263", "69b641bcee0690c6", "3ddfa40f7e0c5c8b",
        "d35be71e53a2db3d", "9aefc633d5b24a5b", "8633163ca6017c29", "c30dd9afbca71bcd",
        "16d7de4a256c4740", "a81f81eed35e2aad", "ebbc9636641f1c10", "2eaef769567789ce",
        "8c2bda0eae328d3b",
    ),
}


def _code_program(name, size):
    if name == "local_laplacian":
        return local_laplacian.build(size, blocks=3)
    return build_workload(name, size)


def code_rows():
    """``CODE_AT_PARENT`` as this checkout computes it: one sweep per
    program and target, memo tables cleared first, as a sweep runs."""
    rows = {}
    for name, size in CODE_PROGRAMS:
        program = _code_program(name, size)
        for target in ("cpu", "gpu"):
            memo.clear_all()
            digests = []
            for sizes in CODE_GRID:
                result = optimize(program, CompileOptions(target=target, tile_sizes=sizes))
                text = print_tree(result.tree, program)
                text += repr(cpu_time(analyze_optimized(result), 32))
                digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
            rows[name, target] = tuple(digests)
    return rows


class TestTheCodeIsTheParents:
    def test_in_process(self):
        assert code_rows() == CODE_AT_PARENT

    def test_in_a_fresh_process_under_another_hash_seed(self):
        child = (
            "import json; from tests.test_autotune import code_rows; "
            "print(json.dumps(list(code_rows().values())))"
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(
            os.environ, PYTHONHASHSEED="42",
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], cwd=root, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        rows = dict(zip(CODE_AT_PARENT, map(tuple, json.loads(proc.stdout))))
        assert rows == CODE_AT_PARENT


class TestCombinations:
    def test_two_dims(self):
        combos = _combinations([8, 16], 2)
        assert set(combos) == {(8, 8), (8, 16), (16, 8), (16, 16)}

    def test_one_dim(self):
        assert _combinations([8, 16], 1) == [(8,), (16,)]


class TestAutotune:
    @pytest.fixture(scope="class")
    def tuned(self):
        prog = unsharp_mask.build(256)
        return prog, autotune_tile_sizes(prog, options=CompileOptions(target="cpu", mode="serial"), threads=32, candidates=(8, 32, 128))

    def test_search_covers_grid(self, tuned):
        _prog, result = tuned
        assert len(result.evaluations) + len(result.failures) == 9

    def test_best_is_minimum(self, tuned):
        _prog, result = tuned
        assert result.best_time == min(result.evaluations.values())
        assert result.evaluations[result.best_sizes] == result.best_time

    def test_best_sizes_usable(self, tuned):
        prog, result = tuned
        opt = optimize(prog, CompileOptions(target="cpu", tile_sizes=result.best_sizes))
        t = cpu_time(analyze_optimized(opt), 32)
        assert t == pytest.approx(result.best_time, rel=1e-6)

    def test_oversized_candidates_skipped(self):
        prog = unsharp_mask.build(64)
        result = autotune_tile_sizes(
            prog, candidates=(8, 512), max_extent=None
        )
        assert all(s <= 64 for sizes in result.evaluations for s in sizes)

    def test_top_k(self, tuned):
        _prog, result = tuned
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] <= top[1][1] <= top[2][1]


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_removed_per_keyword_configuration_rejected(cache_dir):
    """Every retired per-keyword spelling raises a TypeError."""
    from repro.core import optimize
    from repro.service.driver import CompileRequest, cached_optimize, compile_batch

    prog = build_workload("mvt", 64)
    opts = CompileOptions(target="cpu")
    with pytest.raises(TypeError):
        autotune_tile_sizes(prog, target="cpu", options=opts)
    with pytest.raises(TypeError):
        autotune_tile_sizes(prog, mode="serial", options=opts)
    with pytest.raises(TypeError):
        optimize(prog, target="cpu", options=opts)
    with pytest.raises(TypeError):
        optimize(prog, tile_sizes=None, options=opts)
    with pytest.raises(TypeError):
        cached_optimize(prog, startup="smartfuse", options=opts)
    with pytest.raises(TypeError):
        compile_batch([CompileRequest(prog)], mode="auto", options=opts)
    # the options spelling is the one path, defaults included
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
    assert result.tile_sizes == (8, 8)


@pytest.mark.parametrize("knob", ["search", "model", "top_k", "collect"])
def test_the_sweep_is_the_only_search(knob):
    with pytest.raises(TypeError, match=knob):
        autotune_tile_sizes(build_workload("mvt", 64), **{knob: None})


def test_tune_result_top_tie_break_is_insertion_independent():
    a = TuneResult(best_sizes=(4, 4), best_time=1.0)
    b = TuneResult(best_sizes=(4, 4), best_time=1.0)
    a.evaluations = {(8, 8): 2.0, (4, 4): 1.0, (2, 2): 1.0, (16, 16): 2.0}
    b.evaluations = {(16, 16): 2.0, (2, 2): 1.0, (4, 4): 1.0, (8, 8): 2.0}
    assert a.top(4) == b.top(4) == [
        ((2, 2), 1.0), ((4, 4), 1.0), ((8, 8), 2.0), ((16, 16), 2.0)
    ]


def test_per_dimension_bounds_from_minimum_liveout(cache_dir):
    """Out-of-range candidates are skipped and recorded, per dimension."""
    prog = build_workload("doitgen", 16)  # small live-out extents
    bounds = liveout_extent_bounds(prog, 2)
    r = autotune_tile_sizes(prog, candidates=(4, 8, 64, 512), dims=2)
    skipped = {s for s, msg in r.failures.items() if msg.startswith("skipped:")}
    for sizes in skipped:
        assert any(sizes[d] > bounds[d] for d in range(2))
    for sizes in r.evaluations:
        assert all(sizes[d] <= bounds[d] for d in range(2))
    assert skipped, "expected out-of-range candidates on a 16^3 workload"
    # every grid point is accounted for: evaluated, failed, or skipped
    assert len(r.evaluations) + len(r.failures) == 16
    # the best candidate respects the per-dimension bounds
    assert all(r.best_sizes[d] <= bounds[d] for d in range(2))


def test_liveout_extent_bounds_shapes():
    prog = build_workload("unsharp_mask", 128)
    b = liveout_extent_bounds(prog, 2)
    assert len(b) == 2 and all(x > 0 for x in b)
    # rank-1 live-outs fall back to their maximal extent (the historical
    # scalar derivation) instead of crashing on a missing dimension
    atax = build_workload("atax", 64)
    b2 = liveout_extent_bounds(atax, 2)
    assert len(b2) == 2 and all(x > 0 for x in b2)
