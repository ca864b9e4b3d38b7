"""Unit tests for the runtime primitives: executor, row memo, profiler."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.runtime import FleetExecutor, RuntimeProfile
from repro.runtime.cache import array_digest, row_digests
from repro.runtime.fleet import CHUNKS_PER_MAP, _chunks, resolve_workers


class TestFleetExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_map_ordered_empty(self):
        assert FleetExecutor(max_workers=4).map_ordered(lambda x: x, []) == []

    def test_map_ordered_propagates_exceptions(self):
        def boom(x):
            if x == 5:
                raise RuntimeError("pump 5 exploded")
            return x

        with pytest.raises(RuntimeError, match="pump 5"):
            FleetExecutor(max_workers=3).map_ordered(boom, range(10))

    def test_chunking_covers_all_items_exactly_once(self):
        for n in (1, 3, 4, 11, 12):
            chunks = _chunks(n)
            flattened = [i for chunk in chunks for i in chunk]
            assert flattened == list(range(n))
            assert len(chunks) <= CHUNKS_PER_MAP

    def test_map_pumps_preserves_insertion_order(self):
        items = [(pump, pump * 10) for pump in (7, 3, 9, 1)]
        result = FleetExecutor(max_workers=4).map_pumps(lambda x: x + 1, items)
        assert list(result.keys()) == [7, 3, 9, 1]
        assert result[9] == 91

    def test_map_runs_on_the_callers_thread(self):
        caller = threading.get_ident()
        seen = FleetExecutor(max_workers=4).map_ordered(
            lambda _: threading.get_ident(), range(8)
        )
        assert set(seen) == {caller}


class TestTransformCache:
    """Unit behaviour of the pipeline's transform row memo."""

    def rows(self, seed: int, n: int = 4):
        return np.random.default_rng(seed).normal(size=(n, 16, 3))

    def test_roundtrip_and_counters(self):
        pipeline = AnalysisPipeline()
        a = self.rows(0)
        cold = pipeline.transform(a)
        warm = pipeline.transform(a)
        for stored, original in zip(warm, cold):
            assert np.array_equal(stored, original)
        assert pipeline.transform_hits == 4 and pipeline.transform_misses == 4

    def test_hits_return_private_copies(self):
        pipeline = AnalysisPipeline()
        a = self.rows(0)
        first = pipeline.transform(a)
        reordered = pipeline.transform(a[::-1])  # all hits, gathered anew
        assert pipeline.transform_hits == 4
        # Every per-row field; the last, psd_rows, indexes rows (all kept).
        for old, new in zip(first[:-1], reordered[:-1]):
            assert np.array_equal(new, old[::-1])
            assert not np.shares_memory(new, old)

    def test_store_is_isolated_from_caller_buffers(self):
        pipeline = AnalysisPipeline()
        a = self.rows(0)
        pipeline.transform(a)
        a[0] += 99.0  # caller reuses its buffer after the call
        got = pipeline.transform(a)
        assert pipeline.transform_misses == 5  # the rewritten row misses
        expected = AnalysisPipeline().transform(a)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_last_call_replaces_memo(self):
        pipeline = AnalysisPipeline()
        a = self.rows(0)
        b = np.concatenate([a[:2], self.rows(1, n=2)])
        pipeline.transform(a)
        pipeline.transform(b)
        assert pipeline.transform_hits == 2
        pipeline.transform(a)  # a's last two rows left with b's call
        assert pipeline.transform_hits == 4
        assert pipeline.transform_misses == 8


class TestArrayDigest:
    def test_content_addressing(self):
        a = np.arange(12, dtype=np.float64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a + 1)

    def test_shape_is_part_of_the_digest(self):
        a = np.zeros(12)
        assert array_digest(a) != array_digest(a.reshape(3, 4))

    def test_non_contiguous_input(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        strided = a[:, ::2]
        assert array_digest(strided) == array_digest(strided.copy())

    def test_float32_and_float64_never_share_a_key(self):
        """Digests hash the bytes in the dtype they arrive in, dtype in
        the key: equal values in float32 and float64 key differently."""
        rows = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        upcast = rows.astype(np.float64)
        assert set(row_digests(rows)).isdisjoint(row_digests(upcast))
        assert array_digest(rows) != array_digest(upcast)
        assert row_digests(rows) == row_digests(rows.copy())


class TestRuntimeProfile:
    def test_stage_accumulation(self):
        profile = RuntimeProfile()
        with profile.stage("transform", items=10):
            pass
        with profile.stage("transform", items=5):
            pass
        stats = profile.stages["transform"]
        assert stats.calls == 2 and stats.items == 15
        assert stats.seconds >= 0.0

    def test_counters_and_dict_snapshot(self):
        profile = RuntimeProfile()
        profile.count("cache_hits", 3)
        profile.count("cache_hits")
        profile.add("score", 0.5, items=100)
        snapshot = profile.as_dict()
        assert snapshot["counters"]["cache_hits"] == 4
        assert snapshot["stages"]["score"]["items"] == 100

    def test_report_renders_stages_and_counters(self):
        profile = RuntimeProfile()
        profile.add("transform", 0.25, items=100)
        profile.count("fleet_workers", 4)
        text = profile.report()
        assert "transform" in text
        assert "fleet_workers=4" in text
        assert "total" in text

    def test_ms_per_item(self):
        profile = RuntimeProfile()
        profile.add("score", 1.0, items=500)
        assert profile.stages["score"].ms_per_item == 2.0
        profile.add("no_items", 1.0)
        assert profile.stages["no_items"].ms_per_item == 0.0

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            RuntimeProfile().add("x", -0.1)

    def test_thread_safety_of_add(self):
        profile = RuntimeProfile()

        def hammer():
            for _ in range(500):
                profile.add("stage", 0.0, items=1)
                profile.count("n")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert profile.stages["stage"].calls == 2000
        assert profile.counters["n"] == 2000
