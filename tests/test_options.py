"""CompileOptions: one validation path for every compile entry point."""

from __future__ import annotations

import pytest

from repro.api import (
    CompileOptions,
    CompileRequest,
    autotune_tile_sizes,
    cached_optimize,
    compile_batch,
    optimize,
)
from repro.core.tile_shapes import CPU, GPU
from repro.pipelines import conv2d
from repro.service import CompileCache


def build_conv(s: int = 32):
    return conv2d.build({"H": s, "W": s, "KH": 3, "KW": 3})


class TestValidation:
    def test_target_name_resolves_to_spec(self):
        assert CompileOptions(target="gpu").target is GPU
        assert CompileOptions().target is CPU

    def test_target_spec_passes_through(self):
        assert CompileOptions(target=CPU).target is CPU

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            CompileOptions(target="tpu")
        with pytest.raises(TypeError):
            CompileOptions(target=42)

    def test_tile_sizes_coerced_to_tuple(self):
        assert CompileOptions(tile_sizes=[32, 16]).tile_sizes == (32, 16)
        assert CompileOptions().tile_sizes is None

    def test_bad_tile_sizes_rejected(self):
        for bad in ((0, 4), (-1,), ()):
            with pytest.raises(ValueError):
                CompileOptions(tile_sizes=bad)

    def test_startup_mode_jobs_validated(self):
        with pytest.raises(ValueError, match="heuristic"):
            CompileOptions(startup="nofuse")
        with pytest.raises(ValueError, match="mode"):
            CompileOptions(mode="warp")
        with pytest.raises(TypeError):
            CompileOptions(jobs=2)

    def test_replace_revalidates(self):
        o = CompileOptions(tile_sizes=(8, 8))
        assert o.replace(target="gpu").target is GPU
        with pytest.raises(ValueError):
            o.replace(mode="bogus")

    def test_frozen(self):
        with pytest.raises(Exception):
            CompileOptions().target = "gpu"

    def test_hashable_and_equal(self):
        a = CompileOptions(target="cpu", tile_sizes=[8, 8])
        b = CompileOptions(target=CPU, tile_sizes=(8, 8))
        assert a == b and hash(a) == hash(b)


class TestCacheSpelling:
    def test_cache_object_passes_through(self, tmp_path):
        cache = CompileCache(cache_dir=str(tmp_path))
        assert CompileOptions(cache=cache).cache is cache

    def test_cache_path_resolves_to_cache(self, tmp_path):
        o = CompileOptions(cache=str(tmp_path / "c"))
        assert isinstance(o.cache, CompileCache)
        assert o.cache.cache_dir == str(tmp_path / "c")

    def test_cache_pathlike_resolves(self, tmp_path):
        o = CompileOptions(cache=tmp_path / "c")
        assert isinstance(o.cache, CompileCache)
        assert o.cache.cache_dir == str(tmp_path / "c")

    def test_cache_default_spelling(self, monkeypatch, tmp_path):
        from repro.service.cache import reset_default_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_cache()
        try:
            o = CompileOptions(cache="default")
            assert isinstance(o.cache, CompileCache)
            assert o.cache.cache_dir == str(tmp_path)
        finally:
            reset_default_cache()

    def test_cache_bare_name_is_namespaced(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        o = CompileOptions(cache="mycache")
        assert isinstance(o.cache, CompileCache)
        assert o.cache.cache_dir == str(tmp_path / "named" / "mycache")

    def test_cache_tilde_expanded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        o = CompileOptions(cache="~/caches/x")
        assert o.cache.cache_dir == str(tmp_path / "caches" / "x")

    def test_a_cache_that_is_none_of_the_spellings_is_refused_on_construction(self, tmp_path):
        # refused where it is passed, not at the first batch that reads it
        class LooksLikeACache:
            def get(self, key):
                return None

        for bad in ({"local": str(tmp_path)}, 3, LooksLikeACache()):
            with pytest.raises(TypeError, match="cache"):
                CompileOptions(cache=bad)

    def test_cached_optimize_with_path_cache(self, tmp_path):
        p = build_conv()
        o = CompileOptions(tile_sizes=(8, 8), cache=str(tmp_path / "cc"))
        r1 = cached_optimize(p, options=o)
        r2 = cached_optimize(p, options=o)
        assert o.cache.stats.hits >= 1
        assert r1.fusion_summary() == r2.fusion_summary()


class TestEntryPoints:
    def test_optimize_positional_options(self):
        p = build_conv()
        r1 = optimize(p, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        r2 = optimize(p, CompileOptions(target="cpu", tile_sizes=(8, 8)))
        assert r1.fusion_summary() == r2.fusion_summary()
        assert r1.tile_sizes == r2.tile_sizes == (8, 8)

    def test_optimize_rejects_removed_kwargs(self):
        p = build_conv()
        with pytest.raises(TypeError):
            optimize(p, target="cpu", tile_sizes=(8, 8))
        with pytest.raises(TypeError):
            optimize(p, CompileOptions(), startup="smartfuse")
        with pytest.raises(TypeError):
            optimize(p, CompileOptions(), options=CompileOptions())

    def test_optimize_reports_effective_sizes(self):
        p = build_conv()
        # No sizes requested: the pass still tiles with unit tiles over the
        # protected parallel dims, and the result reports what it used.
        r = optimize(p)
        assert r.tile_sizes is not None
        assert all(s == 1 for s in r.tile_sizes)
        # Requested sizes are clipped to the band depth before reporting.
        deep = optimize(p, CompileOptions(tile_sizes=(8, 8, 8, 8, 8, 8)))
        assert deep.tile_sizes is not None
        assert len(deep.tile_sizes) <= 6

    def test_compile_batch_options(self, tmp_path):
        p = build_conv()
        reqs = [CompileRequest(p, tile_sizes=(t, t)) for t in (4, 8)]
        outs = compile_batch(reqs, options=CompileOptions(mode="serial"))
        assert all(o.ok for o in outs)
        with pytest.raises(TypeError):
            compile_batch(reqs, mode="serial", options=CompileOptions())

    def test_cached_optimize_options(self, tmp_path):
        p = build_conv()
        cache = CompileCache(cache_dir=tmp_path)
        o = CompileOptions(tile_sizes=(8, 8), cache=cache)
        r1 = cached_optimize(p, options=o)
        r2 = cached_optimize(p, options=o)
        assert cache.stats.hits >= 1
        assert r1.fusion_summary() == r2.fusion_summary()

    def test_autotune_options_match_legacy(self):
        p = build_conv()
        legacy = autotune_tile_sizes(p, options=CompileOptions(target="cpu", mode="serial"), candidates=(4, 8), dims=2)
        opt = autotune_tile_sizes(
            p, candidates=(4, 8), dims=2,
            options=CompileOptions(target="cpu", mode="serial"),
        )
        assert legacy.best_sizes == opt.best_sizes
        assert legacy.evaluations == opt.evaluations

    def test_autotune_rejects_removed_kwargs(self):
        p = build_conv()
        with pytest.raises(TypeError):
            autotune_tile_sizes(
                p, target="gpu", options=CompileOptions(target="gpu")
            )
        with pytest.raises(TypeError):
            autotune_tile_sizes(p, mode="serial")
