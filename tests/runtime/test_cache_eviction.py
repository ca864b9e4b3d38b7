"""Eviction and collision-adjacent tests for the content digests and the
pipeline's row memo.

The memo is content-addressed: digest equality is the only identity.
These tests pin the properties that keep that safe — bounded eviction
(last-call replacement), *no aliasing* between arrays that share a
shape (or byte length) but differ in content, and no write to a row an
earlier call handed out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.runtime.cache import array_digest


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


class TestTransformCacheEviction:
    """The pipeline's transform row memo keeps the last call only."""

    def rows(self, seed: int, n: int = 4):
        return np.random.default_rng(seed).normal(size=(n, 16, 3))

    def test_bounded_to_last_call(self):
        pipeline = AnalysisPipeline()
        a, b = self.rows(0), self.rows(1)
        pipeline.transform(a)
        pipeline.transform(b)  # replaces a's rows entirely
        pipeline.transform(a)
        assert pipeline.transform_hits == 0
        assert pipeline.transform_misses == 12

    def test_earlier_results_stay_frozen_across_refreshes(self, workload):
        """A refresh writes only past the rows it has handed out.

        A growing window first outgrows the memo's buffers (a growth
        refresh copies them into larger ones) and then fits (an append
        refresh writes its new rows into the same buffers).  Across
        both, every array an earlier call returned stays byte-equal to a
        copy taken before the later call, and every array it shares with
        the memo stays read-only.
        """
        ids, days, blocks, labels = workload
        pipeline = AnalysisPipeline()

        def refresh(n):
            features = pipeline.transform(blocks[:n])
            window = {row: zone for row, zone in labels.items() if row < n}
            result = pipeline.analyze(ids[:n], days[:n], features, window)
            peaks = result.peaks
            memo = [*features, result.offsets, result.rms, result.psd, result.psd_rows]
            memo += [peaks.frequencies, peaks.values, peaks.counts]
            owned = [result.valid_mask, result.da, result.zones, result.zone_thresholds]
            return memo, [array.copy() for array in memo + owned], memo + owned

        calls = [refresh(100)]
        for n in (200, 240):  # the growth refresh, then the append refresh
            calls.append(refresh(n))
            for memo, before, arrays in calls[:-1]:
                for array in memo:
                    assert not array.flags.writeable
                for array, copy in zip(arrays, before):
                    assert array.dtype == copy.dtype
                    assert array.tobytes() == copy.tobytes()
        (cold, _, _), (grown, _, _), (appended, _, _) = calls
        # offsets: the growth refresh copied, the append did not.  The
        # PSD rows are a copy out of the pipeline's private PSD memo.
        assert not np.shares_memory(cold[0], grown[0])
        assert np.shares_memory(grown[0], appended[0])
        assert not np.shares_memory(grown[5], appended[5])
        assert pipeline.transform_hits == 100 + 200

    def test_outputs_are_read_only(self):
        """The memo stores the returned arrays themselves; freezing them
        is what keeps a caller from corrupting a memoized row."""
        pipeline = AnalysisPipeline()
        a = self.rows(6)
        cold = pipeline.transform(a)
        mixed = pipeline.transform(np.concatenate([a, self.rows(7, n=1)]))
        for arr in cold + mixed:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_same_length_different_bytes_do_not_alias(self):
        pipeline = AnalysisPipeline()
        block_a = np.zeros((2, 16, 3))
        block_b = np.zeros((2, 16, 3))
        block_b[1, 0, 0] = 1e-300  # same shape and byte length, one bit of difference
        pipeline.transform(block_a)
        got = pipeline.transform(block_b)
        assert pipeline.transform_hits == 1  # only the identical row 0
        assert pipeline.transform_misses == 3
        expected = AnalysisPipeline().transform(block_b)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want, have)

    def test_counters(self):
        pipeline = AnalysisPipeline()
        a = self.rows(8)
        pipeline.transform(a)
        assert (pipeline.transform_hits, pipeline.transform_misses) == (0, 4)
        pipeline.transform(np.concatenate([a, self.rows(9, n=2)]))
        assert (pipeline.transform_hits, pipeline.transform_misses) == (4, 6)

