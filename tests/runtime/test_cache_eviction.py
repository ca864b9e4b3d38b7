"""Eviction and collision-adjacent tests for the runtime caches.

The caches are content-addressed: digest equality is the only identity.
These tests pin the two properties that keep that safe — bounded
eviction (FIFO for the peak cache, last-call replacement for the
transform row memo), and *no aliasing* between arrays that share a
shape (or byte length) but differ in content.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.peaks import HarmonicPeaks
from repro.core.pipeline import AnalysisPipeline
from repro.runtime.cache import (
    PeakFeatureCache,
    array_digest,
    default_peak_cache,
)


class TestArrayDigest:
    def test_same_content_same_digest(self):
        a = np.arange(12, dtype=np.float64).reshape(4, 3)
        b = np.arange(12, dtype=np.float64).reshape(4, 3)
        assert array_digest(a) == array_digest(b)

    def test_same_shape_different_bytes_differ(self):
        """The collision-adjacent case: equal shape, equal dtype, one
        element different — the digests must never alias."""
        a = np.zeros((8, 3))
        b = np.zeros((8, 3))
        b[7, 2] = np.nextafter(0.0, 1.0)  # smallest possible difference
        assert array_digest(a) != array_digest(b)

    def test_same_bytes_different_shape_differ(self):
        """Shape participates in the digest: a (6,) and a (2, 3) view of
        the same buffer are different work."""
        flat = np.arange(6, dtype=np.float64)
        assert array_digest(flat) != array_digest(flat.reshape(2, 3))
        assert array_digest(flat.reshape(3, 2)) != array_digest(flat.reshape(2, 3))

    def test_non_contiguous_input_matches_contiguous_copy(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        strided = base[:, ::2]
        assert array_digest(strided) == array_digest(np.ascontiguousarray(strided))

    def test_integer_input_promotes_to_float64(self):
        ints = np.array([1, 2, 3])
        floats = np.array([1.0, 2.0, 3.0])
        assert array_digest(ints) == array_digest(floats)


def make_peaks(seed: int) -> HarmonicPeaks:
    gen = np.random.default_rng(seed)
    return HarmonicPeaks(
        frequencies=np.sort(gen.uniform(10, 2000, size=5)),
        values=gen.uniform(0.1, 1.0, size=5),
    )


class TestPeakFeatureCacheEviction:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PeakFeatureCache(max_entries=0)

    def test_evicts_oldest_beyond_budget(self):
        cache = PeakFeatureCache(max_entries=3)
        for i in range(5):
            cache._put(("peaks", i), f"value-{i}")
        assert len(cache) == 3
        # FIFO: 0 and 1 evicted, 2..4 retained.
        assert cache._get(("peaks", 0)) is None
        assert cache._get(("peaks", 1)) is None
        assert cache._get(("peaks", 4)) == "value-4"

    def test_eviction_is_insertion_ordered_not_access_ordered(self):
        cache = PeakFeatureCache(max_entries=2)
        cache._put(("peaks", "a"), 1)
        cache._put(("peaks", "b"), 2)
        assert cache._get(("peaks", "a")) == 1  # touch the oldest
        cache._put(("peaks", "c"), 3)
        # Plain FIFO evicts "a" despite the recent hit.
        assert cache._get(("peaks", "a")) is None
        assert cache._get(("peaks", "b")) == 2

    def test_distance_namespace_shares_the_budget(self):
        cache = PeakFeatureCache(max_entries=2)
        a, b = make_peaks(1), make_peaks(2)
        cache.distance(a, b, match_tolerance_hz=5.0)
        cache._put(("peaks", "x"), 1)
        cache._put(("peaks", "y"), 2)
        # The distance entry was first in, so it was evicted.
        assert len(cache) == 2
        before = cache.misses
        cache.distance(a, b, match_tolerance_hz=5.0)
        assert cache.misses == before + 1

    def test_peaks_for_rows_no_aliasing_between_same_shape_rows(self):
        """Two PSD rows with identical shape but different bytes must be
        computed independently — a shape-only key would alias them."""
        cache = PeakFeatureCache(max_entries=100)
        freqs = np.linspace(0, 2000, 64)
        row_a = np.zeros((1, 64))
        row_a[0, 10] = 1.0
        row_b = np.zeros((1, 64))
        row_b[0, 20] = 1.0

        def compute_batch(rows):
            return [("computed", array_digest(row)) for row in rows]

        params = PeakFeatureCache.peak_params_key(3, 5, 2, 0.0)
        (out_a,) = cache.peaks_for_rows(row_a, freqs, params, compute_batch)
        (out_b,) = cache.peaks_for_rows(row_b, freqs, params, compute_batch)
        assert out_a != out_b
        # And both are now warm, byte-addressed.
        (again_a,) = cache.peaks_for_rows(row_a, freqs, params, compute_batch)
        assert again_a == out_a
        assert cache.hits == 1

    def test_distance_tolerance_is_part_of_the_key(self):
        cache = PeakFeatureCache(max_entries=100)
        a, b = make_peaks(3), make_peaks(4)
        cache.distance(a, b, match_tolerance_hz=5.0)
        misses_before = cache.misses
        cache.distance(a, b, match_tolerance_hz=10.0)
        assert cache.misses == misses_before + 1

    def test_clear_resets_contents_and_counters(self):
        cache = PeakFeatureCache(max_entries=10)
        cache._put(("peaks", 1), "v")
        cache._get(("peaks", 1))
        cache._get(("peaks", 2))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0


class TestTransformCacheEviction:
    """The pipeline's transform row memo keeps the last call only."""

    def rows(self, seed: int, n: int = 4):
        return np.random.default_rng(seed).normal(size=(n, 16, 3))

    def test_bounded_to_last_call(self):
        pipeline = AnalysisPipeline(cache=PeakFeatureCache())
        a, b = self.rows(0), self.rows(1)
        pipeline.transform(a)
        pipeline.transform(b)  # replaces a's rows entirely
        pipeline.transform(a)
        assert pipeline.transform_hits == 0
        assert pipeline.transform_misses == 12

    def test_hits_return_copies_not_views(self):
        """A hit is gathered into the new call's own result arrays, so
        no two calls ever share a buffer."""
        pipeline = AnalysisPipeline(cache=PeakFeatureCache())
        a = self.rows(5)
        first = pipeline.transform(a)
        second = pipeline.transform(a)
        assert pipeline.transform_hits == a.shape[0]
        for old, new in zip(first, second):
            assert not np.shares_memory(old, new)
            np.testing.assert_array_equal(old, new)

    def test_outputs_are_read_only(self):
        """The memo stores the returned arrays themselves; freezing them
        is what keeps a caller from corrupting a memoized row."""
        pipeline = AnalysisPipeline(cache=PeakFeatureCache())
        a = self.rows(6)
        cold = pipeline.transform(a)
        mixed = pipeline.transform(np.concatenate([a, self.rows(7, n=1)]))
        for arr in cold + mixed:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_same_length_different_bytes_do_not_alias(self):
        pipeline = AnalysisPipeline(cache=PeakFeatureCache())
        block_a = np.zeros((2, 16, 3))
        block_b = np.zeros((2, 16, 3))
        block_b[1, 0, 0] = 1e-300  # same shape and byte length, one bit of difference
        pipeline.transform(block_a)
        got = pipeline.transform(block_b)
        assert pipeline.transform_hits == 1  # only the identical row 0
        assert pipeline.transform_misses == 3
        expected = AnalysisPipeline(cache=PeakFeatureCache()).transform(block_b)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)

    def test_counters(self):
        pipeline = AnalysisPipeline(cache=PeakFeatureCache())
        a = self.rows(8)
        pipeline.transform(a)
        assert (pipeline.transform_hits, pipeline.transform_misses) == (0, 4)
        pipeline.transform(np.concatenate([a, self.rows(9, n=2)]))
        assert (pipeline.transform_hits, pipeline.transform_misses) == (4, 6)


def test_default_peak_cache_is_process_wide_singleton():
    assert default_peak_cache() is default_peak_cache()
