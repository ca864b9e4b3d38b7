"""Tests for the content-addressed lifetime-model fit memo (cache.py)."""

import threading

import numpy as np

from repro.core.ransac import RecursiveRANSAC
from repro.runtime.cache import (
    ModelFitCache,
    default_model_fit_cache,
)
from tests.reference.ransac import ReferenceRecursiveRANSAC


def fleet(seed=0, n=300):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0, 80, n)
    z = 0.05 * x + gen.normal(0, 0.05, n)
    return x, z


class TestModelFitCache:
    def test_miss_computes_then_hit_returns_same_object(self):
        cache = ModelFitCache()
        x, z = fleet()
        engine = RecursiveRANSAC(residual_threshold=0.15, min_inliers=30, seed=0)
        key = ModelFitCache.fit_key(engine.config_key(), x, z)
        calls = []

        def compute():
            calls.append(1)
            return engine.clone().fit(x, z)

        first = cache.models(key, compute)
        second = cache.models(key, compute)
        assert len(calls) == 1
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_fit_key_is_content_addressed(self):
        x, z = fleet()
        engine = RecursiveRANSAC(seed=0)
        key = ModelFitCache.fit_key(engine.config_key(), x, z)
        assert key == ModelFitCache.fit_key(engine.config_key(), x.copy(), z.copy())
        assert key != ModelFitCache.fit_key(engine.config_key(), x, z + 1e-9)
        other = RecursiveRANSAC(seed=1)
        assert key != ModelFitCache.fit_key(other.config_key(), x, z)

    def test_engine_mode_changes_the_key(self):
        x, z = fleet()
        batched = RecursiveRANSAC(seed=0)
        reference = ReferenceRecursiveRANSAC(seed=0)
        assert ModelFitCache.fit_key(
            batched.config_key(), x, z
        ) != ModelFitCache.fit_key(reference.config_key(), x, z)

    def test_fifo_eviction(self):
        cache = ModelFitCache(max_entries=2)
        for i in range(3):
            cache.models(("key", i), lambda i=i: [i])
        assert len(cache) == 2
        # Oldest key evicted: probing it recomputes.
        assert cache.models(("key", 0), lambda: ["recomputed"]) == ["recomputed"]

    def test_clear_resets_counters(self):
        cache = ModelFitCache()
        cache.models(("k",), lambda: [])
        cache.models(("k",), lambda: [])
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_thread_safety_under_concurrent_probes(self):
        cache = ModelFitCache()
        x, z = fleet(seed=2)
        engine = RecursiveRANSAC(residual_threshold=0.15, min_inliers=30, seed=0)
        key = ModelFitCache.fit_key(engine.config_key(), x, z)
        results = []

        def worker():
            results.append(cache.models(key, lambda: engine.clone().fit(x, z)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        first = results[0]
        for models in results[1:]:
            assert len(models) == len(first)
            for a, b in zip(models, first):
                assert a.slope == b.slope and a.intercept == b.intercept

    def test_default_cache_is_process_wide(self):
        assert default_model_fit_cache() is default_model_fit_cache()
