"""Unit tests for the repro.bench parallel harness and result cache."""

from __future__ import annotations

import json

import pytest

from repro.bench import BenchSpec, CacheKey, ResultCache, run_config, run_grid
from repro.bench.cache import CACHE_VERSION


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = CacheKey("sort", 8, 4, 64, 0)
        assert cache.get(key) is None
        path = cache.put(key, {"stats": {"cycles": 42}})
        assert path.name == (
            "sort_p8_k4_n64_seed0_generator_columnsort.json"
        )
        assert cache.get(key) == {"stats": {"cycles": 42}}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("sort", 8, 4, 64, 0)
        cache.put(key, {"x": 1})
        payload = json.loads((tmp_path / key.filename()).read_text())
        payload["cache_version"] = CACHE_VERSION + 1
        (tmp_path / key.filename()).write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_entry_is_one_compact_line(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("sort", 8, 4, 64, 0)
        result = {"stats": {"cycles": 42, "phases": [{"b": 1, "a": 2}]}}
        text = cache.put(key, result).read_text()
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert cache.get(key) == result

    def test_indented_entry_still_hits(self, tmp_path):
        # Entries written before the compact format are pretty-printed.
        cache = ResultCache(tmp_path)
        key = CacheKey("sort", 8, 4, 64, 0)
        payload = {
            "cache_version": CACHE_VERSION,
            "key": list(key),
            "result": {"stats": {"cycles": 7}},
        }
        (tmp_path / key.filename()).write_text(
            json.dumps(payload, sort_keys=True, indent=1)
        )
        assert cache.get(key) == {"stats": {"cycles": 7}}
        assert cache.hits == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("sort", 8, 4, 64, 0)
        (tmp_path / key.filename()).write_text("{not json")
        assert cache.get(key) is None


class TestRunConfig:
    def test_sort_payload_shape(self):
        spec = BenchSpec("sort", 8, 8, 64, seed=1)
        payload = run_config(spec)
        assert payload["spec"] == list(spec)
        assert payload["stats"]["totals"]["cycles"] > 0
        assert payload["stats"]["totals"]["messages"] > 0
        assert len(payload["fingerprint"]) == 16
        # Deterministic: same spec, same fingerprint and stats.
        again = run_config(spec)
        assert again["fingerprint"] == payload["fingerprint"]
        assert again["stats"] == payload["stats"]

    def test_select_runs(self):
        payload = run_config(BenchSpec("select", 8, 4, 64, seed=2))
        assert payload["stats"]["totals"]["messages"] > 0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown benchmark algorithm"):
            run_config(BenchSpec("frobnicate", 8, 4, 64, 0))


class TestRunGrid:
    def test_results_in_spec_order_and_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = BenchSpec("sort", 4, 4, 32, seed=1)
        b = BenchSpec("select", 4, 2, 32, seed=1)
        out = run_grid([a, b, a], cache=cache, max_workers=0)
        assert len(out) == 3
        assert out[0] == out[2]  # duplicate spec evaluated once
        assert out[0]["spec"] == list(a) and out[1]["spec"] == list(b)
        assert len(cache) == 2

        # Second pass: everything served from disk.
        out2 = run_grid([a, b], cache=cache, max_workers=0)
        assert out2 == out[:2]
        assert cache.hits == 2

    def test_process_pool_matches_inline(self, tmp_path):
        specs = [BenchSpec("sort", 4, 4, 32, seed=s) for s in (1, 2)]
        inline = run_grid(specs, max_workers=0)
        pooled = run_grid(specs, max_workers=2)
        assert [r["fingerprint"] for r in inline] == [
            r["fingerprint"] for r in pooled
        ]
        assert [r["stats"] for r in inline] == [r["stats"] for r in pooled]

    def test_full_cache_hit_never_spawns_pool(self, tmp_path, monkeypatch):
        import repro.bench.runner as runner

        cache = ResultCache(tmp_path)
        specs = [BenchSpec("sort", 4, 4, 32, seed=s) for s in (1, 2)]
        warm = run_grid(specs, cache=cache, max_workers=0)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned despite a fully warmed cache")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        served = run_grid(specs, cache=cache)  # default workers, all hits
        assert served == warm

    def test_pool_width_capped_by_todo(self, tmp_path, monkeypatch):
        import repro.bench.runner as runner

        seen = {}
        real_pool = runner.ProcessPoolExecutor

        def spy(max_workers=None, **kwargs):
            seen["width"] = max_workers
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", spy)
        specs = [BenchSpec("sort", 4, 4, 32, seed=s) for s in (1, 2)]
        run_grid(specs, max_workers=16)
        assert seen["width"] == 2  # min(len(todo), max_workers)

    def test_env_var_default_forces_inline(self, tmp_path, monkeypatch):
        import repro.bench.runner as runner

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned despite REPRO_BENCH_MAX_WORKERS=0")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        monkeypatch.setenv("REPRO_BENCH_MAX_WORKERS", "0")
        specs = [BenchSpec("sort", 4, 4, 32, seed=s) for s in (1, 2)]
        out = run_grid(specs)  # max_workers unset -> env default
        assert len(out) == 2
