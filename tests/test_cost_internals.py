"""White-box tests of the cost analyzer internals."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import CompileOptions
from repro.codegen import print_tree, promoted_buffers
from repro.core import optimize
from repro.core.footprint import band_extents, domain_volume, group_ops
from repro.ir import ProgramBuilder
from repro.machine import analyze_optimized, analyze_scheduled
from repro.machine.cost import _tensor_bytes
from repro.pipelines import conv2d, unsharp_mask
from repro.scheduler import MAXFUSE, MINFUSE, SMARTFUSE, schedule_program
from repro.workloads import default_tile_sizes, get_workload, workload_names

PARAMS = {"H": 64, "W": 64, "KH": 3, "KW": 3}

#: multiscale_interp at its default 512 leaves pyramid levels empty; both
#: analyzers say which tensor, and which one they meet first is pinned too.
EMPTY_LEVEL_OPTIMIZED = "ValueError: tensor t_interp0 has extent -512 <= 0"
EMPTY_LEVEL_SCHEDULED = "ValueError: tensor t_dbx6 has extent 0 <= 0"

FIXED_TILES = ((8, 8), (16, 64), (4, 32))
SCHEDULED_TILES = (None, (8, 8), (32, 32))
HEURISTICS = {"minfuse": MINFUSE, "smartfuse": SMARTFUSE, "maxfuse": MAXFUSE}

#: What the machine model and promotion answered at 1867bad, before the
#: per-tile geometry (origin, extents, tile count, touched boxes) moved to
#: one owner in ``core/footprint.py``; 453 rows, ``model_rows`` computes them.
#: ``(workload, target)``: one entry per tile vector of ``optimized_tiles``
#: (the default, ``None``, ``FIXED_TILES``; equake's default is ``None``), each
#: the sha256[:16] of the sorted-key JSON of ``analyze_optimized`` under both
#: overlap policies, every promoted buffer's ``(tensor, box_shape,
#: exact_elems)`` and the ``print_tree`` digest.  ``(workload, heuristic)``:
#: ``analyze_scheduled`` per ``SCHEDULED_TILES`` entry.  A row that raised holds
#: ``"<type>: <message>"`` instead.  Every workload is at its default size.
AT_PARENT = {
    ("2mm", "cpu"):
        "8dafd434a6d67b68 32f38be70a52008b c0c7e30c77822b40 59861638ecf133e4 7fb328dfd1cc4206".split(),
    ("2mm", "gpu"):
        "8dafd434a6d67b68 7798b0751a3475b6 c0c7e30c77822b40 59861638ecf133e4 7fb328dfd1cc4206".split(),
    ("2mm", "npu"):
        "8dafd434a6d67b68 7f652ded0ca053a6 c0c7e30c77822b40 59861638ecf133e4 7fb328dfd1cc4206".split(),
    ("2mm", "minfuse"):
        "473c02cea562130a c877891d5fe5fbec 0e5766de96c01041".split(),
    ("2mm", "smartfuse"):
        "7edc431c2d401b51 f3bdf21cbe324464 0379770e257b7f98".split(),
    ("2mm", "maxfuse"):
        "e2d35f08e1280a40 14e7559ba8d41dd5 14ae74f9ccc46f9f".split(),
    ("3mm", "cpu"):
        "88b1cda6f08140b8 54eb72fd707832cb d4b37e353ef49cdb 2de1dabb28e59a36 259bbf8c02759cdf".split(),
    ("3mm", "gpu"):
        "88b1cda6f08140b8 26f847ad5357bcb4 d4b37e353ef49cdb 2de1dabb28e59a36 259bbf8c02759cdf".split(),
    ("3mm", "npu"):
        "88b1cda6f08140b8 40c21d033fa42ed4 d4b37e353ef49cdb 2de1dabb28e59a36 259bbf8c02759cdf".split(),
    ("3mm", "minfuse"):
        "4ab9cd57bb780eea 64d7d7a0ce5c1f36 08b74678a8823d5c".split(),
    ("3mm", "smartfuse"):
        "772c347ec15fb487 b3d0a32e0d5f28c0 23e4c07d4b9332d5".split(),
    ("3mm", "maxfuse"):
        "edf0680c9470affe fbc2134c6f497642 dc4465229ca15514".split(),
    ("atax", "cpu"):
        "5802ae1fbbf86333 8df6fd0e25fb7992 36ece86a5c170d43 1173ef858e209ad6 79d43a195f3e5e8c".split(),
    ("atax", "gpu"):
        "51a6ffa4956295f6 51a6ffa4956295f6 51a6ffa4956295f6 51a6ffa4956295f6 51a6ffa4956295f6".split(),
    ("atax", "npu"):
        "5802ae1fbbf86333 8df6fd0e25fb7992 36ece86a5c170d43 1173ef858e209ad6 79d43a195f3e5e8c".split(),
    ("atax", "minfuse"):
        "6ad4da668c0b7a96 b61f3affbe4a6ae0 90ea187f34430bff".split(),
    ("atax", "smartfuse"):
        "b01bc6efe1b93091 38805a26ade030d0 958dccc4a2d3cdb6".split(),
    ("atax", "maxfuse"):
        "3499f4487254f9a8 46dd632c4c8d2dd9 9df08cb0d3933610".split(),
    ("bicg", "cpu"):
        "45d5044bbdfe1a8b 923fa8e4d157a60b 7342e2d34436fb39 96bdd9359d89a8ed a553bccee6f0ffaa".split(),
    ("bicg", "gpu"):
        "9111b089f9eb7272 9111b089f9eb7272 9111b089f9eb7272 9111b089f9eb7272 9111b089f9eb7272".split(),
    ("bicg", "npu"):
        "45d5044bbdfe1a8b 923fa8e4d157a60b 7342e2d34436fb39 96bdd9359d89a8ed a553bccee6f0ffaa".split(),
    ("bicg", "minfuse"):
        "9d1709c9dbd664a7 cf4afce6e08b89a8 3691d63a475db4d2".split(),
    ("bicg", "smartfuse"):
        "848441907b3de91d 89b3ee9dce7a724c 2fb4c82c02ba1f53".split(),
    ("bicg", "maxfuse"):
        "848441907b3de91d 89b3ee9dce7a724c 2fb4c82c02ba1f53".split(),
    ("bilateral_grid", "cpu"):
        "b1a4aea358ae2ad0 a0c5c5315c6d241b 319ab97440ab9d32 98a8ca6c580917ae 7264c22d4abfbe9e".split(),
    ("bilateral_grid", "gpu"):
        "b1a4aea358ae2ad0 d9332a8ee1c5b361 319ab97440ab9d32 98a8ca6c580917ae 7264c22d4abfbe9e".split(),
    ("bilateral_grid", "npu"):
        "b1a4aea358ae2ad0 a0c5c5315c6d241b 319ab97440ab9d32 98a8ca6c580917ae 7264c22d4abfbe9e".split(),
    ("bilateral_grid", "minfuse"):
        "10a3c6f414c5500b a986f266d166b5f9 3a2a2ee92ee0c676".split(),
    ("bilateral_grid", "smartfuse"):
        "bbd1e08c94c10132 a0c866765b83e57c ce2b6f8d9591f973".split(),
    ("bilateral_grid", "maxfuse"):
        "f748a417f03ad588 71ce77495f9b7889 73ce1835f0e37b35".split(),
    ("camera_pipeline", "cpu"):
        "808376c5a5dd52de 95ff000afb167f5e a86d56f31e89f2a7 59e5b2f2d6e27274 4aee7ca0748ae28f".split(),
    ("camera_pipeline", "gpu"):
        "26be87f193b1ce1d 7a4a6f67377bb072 a86d56f31e89f2a7 a17e595cb8200736 4aee7ca0748ae28f".split(),
    ("camera_pipeline", "npu"):
        "d8fe6702220fe911 22fa7226713c58e9 a86d56f31e89f2a7 6e01eafc4d385d2d 4aee7ca0748ae28f".split(),
    ("camera_pipeline", "minfuse"):
        "cb27bd7e33a7bd63 3f399569a7b6303a 77cba0277506565a".split(),
    ("camera_pipeline", "smartfuse"):
        "48309c883d5eaa81 320dfb9177e6c598 3d5a7159aa183b70".split(),
    ("camera_pipeline", "maxfuse"):
        "3f875608b9d08760 92586bfaffbdbf94 7db659120959cd61".split(),
    ("camera_resnet", "cpu"):
        "1df4e6f0d1e9af9c 1849d5a4d8a9b30c 4aef9e5c948ed0b2 912dc352bbef075f 898e3baada4e98de".split(),
    ("camera_resnet", "gpu"):
        "6b6beee2ad4f491a abfeeee1312b0441 4aef9e5c948ed0b2 912dc352bbef075f 898e3baada4e98de".split(),
    ("camera_resnet", "npu"):
        "6b6beee2ad4f491a 1849d5a4d8a9b30c 4aef9e5c948ed0b2 912dc352bbef075f 898e3baada4e98de".split(),
    ("camera_resnet", "minfuse"):
        "d844055e5580c370 d21ace023fd43d54 f0573fa0c33113c4".split(),
    ("camera_resnet", "smartfuse"):
        "9b73bd5a0003a6cc ace9251164ed0b8a 3e4ab83d1d1338a2".split(),
    ("camera_resnet", "maxfuse"):
        "ecf4f8a20b1294c5 901cb0f6325ecb48 a040d7939e800765".split(),
    ("conv2d", "cpu"):
        "6dd76d09412430e7 81f6ee8393e7905a 1d4a839899f87e23 9cc8225af65ac0a3 49be8c73ad708a42".split(),
    ("conv2d", "gpu"):
        "6dd76d09412430e7 4518599f4832cea5 1d4a839899f87e23 9cc8225af65ac0a3 49be8c73ad708a42".split(),
    ("conv2d", "npu"):
        "6dd76d09412430e7 81f6ee8393e7905a 1d4a839899f87e23 9cc8225af65ac0a3 49be8c73ad708a42".split(),
    ("conv2d", "minfuse"):
        "27af603b90a70b99 5a59f1627a7a5f47 0144f2f868fe0e8c".split(),
    ("conv2d", "smartfuse"):
        "cffad0ee6bd60144 3a65487a225d251e ca2018650e1764d2".split(),
    ("conv2d", "maxfuse"):
        "b595554546877bf9 4c2d5ab5fb026f0e 63622c6427f72881".split(),
    ("conv_bn", "cpu"):
        "08dfc2d75fa73238 4ae9065a0524325b 3ac9414a314e8d01 552d9736df4fdfc8 e0f15fdf507f8bf6".split(),
    ("conv_bn", "gpu"):
        "08dfc2d75fa73238 1a7051625740ce8b 3ac9414a314e8d01 552d9736df4fdfc8 e0f15fdf507f8bf6".split(),
    ("conv_bn", "npu"):
        "08dfc2d75fa73238 4ae9065a0524325b 3ac9414a314e8d01 552d9736df4fdfc8 e0f15fdf507f8bf6".split(),
    ("conv_bn", "minfuse"):
        "cb1b1b501f96a8c5 c427b9cb60adde0c 256e64268ac24047".split(),
    ("conv_bn", "smartfuse"):
        "28373fd8902423d8 86842d2041353582 594857a03bf12f93".split(),
    ("conv_bn", "maxfuse"):
        "28373fd8902423d8 86842d2041353582 594857a03bf12f93".split(),
    ("covariance", "cpu"):
        "28c83c348533a47c ea1275acae7fc10b 8968f17e9ce176ae e2e9c4b0cd0ee7cc 130cb238d3a0c2c3".split(),
    ("covariance", "gpu"):
        "3614a358731442f9 07eed2fe2daeb74d a0deb33ac5ff2218 18117072489ef13a 9466408955f5f293".split(),
    ("covariance", "npu"):
        "28c83c348533a47c ea1275acae7fc10b 8968f17e9ce176ae e2e9c4b0cd0ee7cc 130cb238d3a0c2c3".split(),
    ("covariance", "minfuse"):
        "2044f4f6c34beed3 e6631d9d5e76cd80 a963a5877087a683".split(),
    ("covariance", "smartfuse"):
        "f763ebda3b6053dc c533dbde7da8660e 45d1a101462545e1".split(),
    ("covariance", "maxfuse"):
        "00a668f062a9daf9 ae47ba2503314e4d 6832c72cfda313c3".split(),
    ("doitgen", "cpu"):
        "eb5d01c3163596dc ebc916e5391aff8d e0a27b4186d6d325 56b7fbdab837df83 2046ccb8528283f8".split(),
    ("doitgen", "gpu"):
        "eb5d01c3163596dc 9ce68850733ed0b7 e0a27b4186d6d325 56b7fbdab837df83 2046ccb8528283f8".split(),
    ("doitgen", "npu"):
        "eb5d01c3163596dc ebc916e5391aff8d e0a27b4186d6d325 56b7fbdab837df83 2046ccb8528283f8".split(),
    ("doitgen", "minfuse"):
        "7b9b8b8117ef20fd 5a9ffc719312ad7d 29e7db5b9d334770".split(),
    ("doitgen", "smartfuse"):
        "13ed553d0f2839f1 84189075220ff1a3 8f0098db62431d77".split(),
    ("doitgen", "maxfuse"):
        "13ed553d0f2839f1 84189075220ff1a3 8f0098db62431d77".split(),
    ("edge_infer", "cpu"):
        "9f6096b7a5793c0e f49815b2fb324d98 0d4d63820a66114c 91f08dd3107f2d24 e6687d5e66319368".split(),
    ("edge_infer", "gpu"):
        "9f6096b7a5793c0e 89d5619746dd8d8a 0d4d63820a66114c 91f08dd3107f2d24 e6687d5e66319368".split(),
    ("edge_infer", "npu"):
        "9f6096b7a5793c0e f49815b2fb324d98 0d4d63820a66114c 91f08dd3107f2d24 e6687d5e66319368".split(),
    ("edge_infer", "minfuse"):
        "a881fb2ba72708c6 17fe9bda6e3b623a e7a68ae91cd30b49".split(),
    ("edge_infer", "smartfuse"):
        "464106e6ada1c4ee 5df4365adcde1d3d e6cb9cc7e93aa6cb".split(),
    ("edge_infer", "maxfuse"):
        "40a6b84917516edb 1944c488e1dae8a1 1ab65d4de88b1457".split(),
    ("equake", "cpu"):
        "2988873176c12f45 0e7574a312fc1239 f7e8e08990323181 334adae6aff53ddb".split(),
    ("equake", "gpu"):
        "be044ad7266a0eb0 be044ad7266a0eb0 be044ad7266a0eb0 be044ad7266a0eb0".split(),
    ("equake", "npu"):
        "2988873176c12f45 0e7574a312fc1239 f7e8e08990323181 334adae6aff53ddb".split(),
    ("equake", "minfuse"):
        "599bfcd52f98c868 df3b98ad07018698 6578cd51313ed98b".split(),
    ("equake", "smartfuse"):
        "de5604e08e0e9967 f70ea5e6d41e7158 1ec036fdc06a209d".split(),
    ("equake", "maxfuse"):
        "de5604e08e0e9967 f70ea5e6d41e7158 1ec036fdc06a209d".split(),
    ("gemver", "cpu"):
        "946a08e4cf9e5b6c 2a046e86e601a8f1 fb0ce646671f4f97 a9583f5c490082a8 44ad509014f163b4".split(),
    ("gemver", "gpu"):
        "b36c641bdae6174c a1470bd24a0a6a85 bbd67703e3d2c032 9fa4106ba5aebdd4 9b3589313c6d72f9".split(),
    ("gemver", "npu"):
        "946a08e4cf9e5b6c 2a046e86e601a8f1 fb0ce646671f4f97 a9583f5c490082a8 44ad509014f163b4".split(),
    ("gemver", "minfuse"):
        "6045a3f279f2833d c4f112c640b49bd3 4d0d39ff15be505b".split(),
    ("gemver", "smartfuse"):
        "d677f1233869d748 5be581a319435fe8 fcf975d82a429e75".split(),
    ("gemver", "maxfuse"):
        "8dec1801a0bec630 d9d15fc419ccdfb6 e3117b66cde79335".split(),
    ("harris", "cpu"):
        "8ae806429c9d5880 47dae47df3755bd4 1b0f5bb81d49826c 1400919d94c85eef a4d4a07f9404b80c".split(),
    ("harris", "gpu"):
        "e238429444ffc5ca f82cf4cf5558efc4 1b0f5bb81d49826c 1400919d94c85eef a4d4a07f9404b80c".split(),
    ("harris", "npu"):
        "2c2dbdc18e942354 47dae47df3755bd4 1b0f5bb81d49826c 1400919d94c85eef a4d4a07f9404b80c".split(),
    ("harris", "minfuse"):
        "0663fc894ba42ddb a84c080429ca0cfe 55cad9ee817c67d6".split(),
    ("harris", "smartfuse"):
        "ba07d8bc8838522a 839ffab30a58db4a 6b460a3296c4c623".split(),
    ("harris", "maxfuse"):
        "86038bac1770f204 30b2c3779731db84 08755b615bae6aa2".split(),
    ("local_laplacian", "cpu"):
        "144dafb2490de69a 9d713fc149043be5 aad40480cd975abe 45fbb43493bd259c 9e19709fca0add07".split(),
    ("local_laplacian", "gpu"):
        "4343b65bc86de9cf f12a45e2c02f7497 96585cf956006c99 39935a0197ba040b 099eab77c1f8c594".split(),
    ("local_laplacian", "npu"):
        "fd5453119b5fab6b 9d713fc149043be5 aad40480cd975abe 806b305b57b11a19 a7e27f5fd44adae5".split(),
    ("local_laplacian", "minfuse"):
        "aaa06a30384cf089 13b45d8ef332bb85 9141cc64a1786de0".split(),
    ("local_laplacian", "smartfuse"):
        "d020b87293c742df 57ddfcf8cf642a91 54e18e54b6a5b131".split(),
    ("local_laplacian", "maxfuse"):
        "9588d2f30c3a72a8 730db79af17a1f90 d744ab5e2e26c366".split(),
    ("multiscale_interp", "cpu"): [EMPTY_LEVEL_OPTIMIZED] * 5,
    ("multiscale_interp", "gpu"): [EMPTY_LEVEL_OPTIMIZED] * 5,
    ("multiscale_interp", "npu"): [EMPTY_LEVEL_OPTIMIZED] * 5,
    ("multiscale_interp", "minfuse"): [EMPTY_LEVEL_SCHEDULED] * 3,
    ("multiscale_interp", "smartfuse"): [EMPTY_LEVEL_SCHEDULED] * 3,
    ("multiscale_interp", "maxfuse"): [EMPTY_LEVEL_SCHEDULED] * 3,
    ("mvt", "cpu"):
        "5c9617d7a732ca17 2377f8b73b28f5c8 091f40dc455a8991 1be1fb553787149c 1e46904a796f633a".split(),
    ("mvt", "gpu"):
        "93d00ed09632fd13 93d00ed09632fd13 93d00ed09632fd13 93d00ed09632fd13 93d00ed09632fd13".split(),
    ("mvt", "npu"):
        "5c9617d7a732ca17 2377f8b73b28f5c8 091f40dc455a8991 1be1fb553787149c 1e46904a796f633a".split(),
    ("mvt", "minfuse"):
        "a4d06cbd837e5bc1 ff88f64ac1abe539 0f1812d6714b3067".split(),
    ("mvt", "smartfuse"):
        "a4d06cbd837e5bc1 ff88f64ac1abe539 0f1812d6714b3067".split(),
    ("mvt", "maxfuse"):
        "a4d06cbd837e5bc1 ff88f64ac1abe539 0f1812d6714b3067".split(),
    ("unsharp_mask", "cpu"):
        "ab633a3b73fdae4a 2cf8d4587f5d992e 607cb6afd5db97fc 92186fd547a3124f 4196cf4169093332".split(),
    ("unsharp_mask", "gpu"):
        "ab633a3b73fdae4a 0587a21167410d4b 607cb6afd5db97fc 92186fd547a3124f 4196cf4169093332".split(),
    ("unsharp_mask", "npu"):
        "ab633a3b73fdae4a 2cf8d4587f5d992e 607cb6afd5db97fc 92186fd547a3124f 4196cf4169093332".split(),
    ("unsharp_mask", "minfuse"):
        "6f61c5cd44a1635f f92c23ebbbf95d75 d1acbb12babd0f3f".split(),
    ("unsharp_mask", "smartfuse"):
        "9cd0e31b6dc42f1a 192f6b12f3861e2c d8cfe3f956d7c9d7".split(),
    ("unsharp_mask", "maxfuse"):
        "87f09aa5495b373e b0ef4ce8e2222724 d27fe140abd22697".split(),
}


def _digest(compute):
    try:
        value = compute()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def optimized_tiles(name):
    return tuple(dict.fromkeys((default_tile_sizes(name), None) + FIXED_TILES))


def _optimized_row(prog, target, tiles):
    res = optimize(prog, CompileOptions(target=target, tile_sizes=tiles))
    return {
        "exact": analyze_optimized(res, overlap="exact").as_builtins(),
        "box_total": analyze_optimized(res, overlap="box_total").as_builtins(),
        "buffers": {
            group: [(b.tensor, b.box_shape, b.exact_elems) for b in bufs]
            for group, bufs in promoted_buffers(res).items()
        },
        "tree": hashlib.sha256(print_tree(res.tree, prog).encode()).hexdigest(),
    }


def model_rows():
    """``AT_PARENT`` as this checkout computes it."""
    rows = {}
    for name in workload_names():
        prog = get_workload(name)
        for target in ("cpu", "gpu", "npu"):
            rows[name, target] = [
                _digest(lambda: _optimized_row(prog, target, tiles))
                for tiles in optimized_tiles(name)
            ]
        for label, heuristic in HEURISTICS.items():
            sched = schedule_program(prog, heuristic)
            rows[name, label] = [
                _digest(lambda: analyze_scheduled(sched, tiles).as_builtins())
                for tiles in SCHEDULED_TILES
            ]
    return rows


def _differing(rows):
    return {
        (*key, n): (got, want)
        for key, want_row in AT_PARENT.items()
        for n, (got, want) in enumerate(zip(rows[key], want_row))
        if got != want
    }


class TestTheModelIsTheParents:
    def test_in_process(self):
        rows = model_rows()
        assert sum(len(r) for r in rows.values()) == 453
        assert list(rows) == list(AT_PARENT)
        assert _differing(rows) == {}

    def test_in_a_fresh_process_under_another_hash_seed(self):
        child = (
            "import json; from tests.test_cost_internals import model_rows; "
            "print(json.dumps(list(model_rows().values())))"
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
        assert _differing(dict(zip(AT_PARENT, json.loads(proc.stdout)))) == {}


@pytest.fixture(scope="module")
def prog():
    return conv2d.build(PARAMS)


@pytest.fixture(scope="module")
def sched(prog):
    return schedule_program(prog, SMARTFUSE)


class TestPrimitives:
    def test_domain_volume_rectangular_exact(self, prog):
        assert domain_volume(prog, "S0", PARAMS) == 64 * 64
        assert domain_volume(prog, "S2", PARAMS) == 62 * 62 * 9

    def test_group_ops_scales_with_op_count(self, prog, sched):
        g = sched.group_of("S2")
        ops = group_ops(prog, g, PARAMS)
        # S1 init + S2 multiply-accumulate + S3 relu dominate
        assert ops > 62 * 62 * 9  # at least one op per reduction instance

    def test_band_extents(self, prog, sched):
        g = sched.group_of("S2")
        extents = band_extents(prog, g, PARAMS)
        assert extents == [62, 62]

    def test_tensor_bytes(self, prog):
        assert _tensor_bytes(prog, "A", PARAMS) == 64 * 64 * 8
        assert _tensor_bytes(prog, "C", PARAMS) == 62 * 62 * 8

    @pytest.mark.parametrize("tiles", [None, (4,)])
    def test_unbounded_band_row_names_its_group(self, tiles):
        """Both analyzers answer an unbounded domain the way ``band_extents``
        does (the model's private copy died on ``int * None``).  The
        recurrence has no parallel dimension, so Algorithm 1 leaves it untiled
        and ``analyze_optimized`` is what meets the row."""
        b = ProgramBuilder("unbounded")
        X, Y = b.tensor("X", (10,)), b.tensor("Y", (10,))
        (i,) = b.iters("i")
        b.assign("S0", [i], "i >= 1", Y[i], Y[i - 1] + X[i])
        p = b.build()
        with pytest.raises(ValueError, match="unbounded band row i in G0"):
            analyze_scheduled(schedule_program(p), tiles)
        with pytest.raises(ValueError, match="unbounded band row i in G0"):
            analyze_optimized(optimize(p, CompileOptions(tile_sizes=tiles)))


class TestTrafficAccounting:
    def test_liveout_written_once(self, prog):
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        work = analyze_optimized(res)
        (cluster,) = work.clusters
        # C is written exactly once (62*62 doubles)
        assert cluster.dram_write_bytes == 62 * 62 * 8

    def test_halo_traffic_exceeds_tensor_size(self, prog):
        """Reading A per tile with halos costs more than one pass."""
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        work = analyze_optimized(res)
        (cluster,) = work.clusters
        a_bytes = 64 * 64 * 8
        assert cluster.dram_read_bytes > a_bytes

    def test_unfused_intermediate_roundtrips(self, prog):
        sched = schedule_program(prog, MINFUSE)
        work = analyze_scheduled(sched, (8, 8))
        # A is written by S0's cluster (it is read later by S2's cluster)
        s0_cluster = next(c for c in work.clusters if "S0" in c.statements)
        assert s0_cluster.dram_write_bytes == 64 * 64 * 8

    def test_scratch_only_when_fused(self, prog):
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        fused = analyze_optimized(res)
        assert fused.clusters[0].scratch_bytes_per_tile > 0
        sched = schedule_program(prog, MINFUSE)
        unfused = analyze_scheduled(sched, (8, 8))
        assert all(c.scratch_bytes_per_tile == 0 for c in unfused.clusters)


class TestOverlapPolicies:
    def test_box_total_never_cheaper(self):
        prog = unsharp_mask.build(256)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 32)))
        exact = analyze_optimized(res, overlap="exact")
        loose = analyze_optimized(res, overlap="box_total")
        assert loose.total_ops() >= exact.total_ops()
        assert loose.total_dram_bytes() >= exact.total_dram_bytes()

    def test_unknown_policy_rejected(self, prog):
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        with pytest.raises(ValueError):
            analyze_optimized(res, overlap="nonsense")
