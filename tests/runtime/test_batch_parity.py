"""Production pipeline ↔ scalar oracle parity.

The batched kernels are built so that every float sees the same
operations in the same order as the scalar oracle in ``tests/reference/``,
so these tests assert *bit* equality (``np.array_equal``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classify import PeakHarmonicFeature
from repro.core.distance import packed_harmonic_distances
from repro.core.features import psd_frequencies
from repro.core.peaks import extract_harmonic_peaks_batch
from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.runtime import FleetExecutor
from repro.runtime.batch import DEFAULT_CHUNK_ROWS, transform_rows
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.profile import RuntimeProfile
from tests.reference.pipeline import ReferencePipeline, transform_reference

from .conftest import make_workload


def fresh_batch(config: PipelineConfig | None = None, **kwargs) -> AnalysisPipeline:
    """A pipeline with an empty row memo."""
    return AnalysisPipeline(config, **kwargs)


def assert_results_identical(scalar, batch) -> None:
    for name in ("offsets", "rms", "psd", "da"):
        a, b = getattr(scalar, name), getattr(batch, name)
        assert np.array_equal(a, b, equal_nan=True), f"{name} diverged"
    assert np.array_equal(scalar.valid_mask, batch.valid_mask)
    assert np.array_equal(scalar.zones, batch.zones)
    assert np.array_equal(scalar.zone_thresholds, batch.zone_thresholds)
    assert scalar.zone_d_threshold == batch.zone_d_threshold
    assert list(scalar.rul.keys()) == list(batch.rul.keys())
    for pump in scalar.rul:
        assert scalar.rul[pump] == batch.rul[pump]


class TestTransformParity:
    def test_transform_bit_identical(self, workload):
        _, _, blocks, _ = workload
        s_off, s_rms, s_psd = transform_reference(blocks)
        b_off, b_rms, b_psd = fresh_batch().transform(blocks)
        assert np.array_equal(s_off, b_off)
        assert np.array_equal(s_rms, b_rms)
        assert np.array_equal(s_psd, b_psd)

    def test_transform_parity_across_chunk_boundaries(self, workload):
        _, _, blocks, _ = workload
        reference = transform_reference(blocks)
        # Chunk sizes that divide, straddle, and exceed the row count.
        for chunk_rows in (1, 7, blocks.shape[0], blocks.shape[0] + 5):
            chunked = fresh_batch(chunk_rows=chunk_rows).transform(blocks)
            for ref, got in zip(reference, chunked):
                assert np.array_equal(ref, got), f"chunk_rows={chunk_rows}"

    def test_transform_empty_matrix(self):
        # The scalar oracle cannot represent an empty result (np.stack
        # needs at least one row); the pipeline degrades gracefully.
        b_off, b_rms, b_psd = fresh_batch().transform(np.empty((0, 128, 3)))
        assert b_off.shape == (0, 3)
        assert b_rms.shape == (0,)
        assert b_psd.shape == (0, 128)

    def test_nan_bearing_measurement_raises_in_both_paths(self, workload):
        _, _, blocks, _ = workload
        poisoned = blocks.copy()
        poisoned[5, 100, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            transform_reference(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            fresh_batch().transform(poisoned)

    def test_inf_bearing_measurement_raises_in_both_paths(self, workload):
        _, _, blocks, _ = workload
        poisoned = blocks.copy()
        poisoned[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            transform_reference(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            fresh_batch().transform(poisoned)

    def test_bad_shape_raises_in_both_paths(self):
        bad = np.zeros((4, 64, 2))
        with pytest.raises(ValueError):
            transform_reference(bad)
        with pytest.raises(ValueError):
            fresh_batch().transform(bad)

    def test_too_short_measurement_raises_in_both_paths(self):
        short = np.zeros((2, 1, 3))
        with pytest.raises(ValueError, match="at least 2 samples"):
            transform_reference(short)
        with pytest.raises(ValueError, match="at least 2 samples"):
            fresh_batch().transform(short)


class TestThreadedTransformParity:
    """``transform_rows`` spreads each chunk's tiles over the executor's
    threads; every op is row-local, so the bytes never depend on it."""

    @staticmethod
    def rows(n: int, seed: int = 5) -> np.ndarray:
        return np.random.default_rng(seed).normal(size=(n, 64, 3))

    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_bit_identical_to_reference(self, workers, n):
        blocks = self.rows(n)
        executor = FleetExecutor(max_workers=workers)
        *outputs, computed = transform_rows(blocks, DEFAULT_CHUNK_ROWS, executor)
        assert computed == n
        for ref, got in zip(transform_reference(blocks), outputs):
            assert np.array_equal(ref, got)
        # Transform tiles bypass the executor's map and its bookkeeping.
        assert executor.last_backend is None

    def test_non_finite_row_in_last_tile_raises(self):
        blocks = self.rows(1000)
        blocks[-1, 10, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            transform_rows(blocks, DEFAULT_CHUNK_ROWS, FleetExecutor(max_workers=3))

    def test_checkpointed_threaded_run_resumes_identically(self, tmp_path):
        blocks = self.rows(1000)
        executor = FleetExecutor(max_workers=3)
        # 400-row chunks: two multi-tile chunks plus a 200-row tail.
        *first, computed = transform_rows(
            blocks, 400, executor, CheckpointManager(tmp_path / "ckpt")
        )
        assert computed == 1000
        *resumed, computed = transform_rows(
            blocks, 400, executor, CheckpointManager(tmp_path / "ckpt")
        )
        assert computed == 0
        for ref, a, b in zip(transform_reference(blocks), first, resumed):
            assert np.array_equal(ref, a)
            assert a.tobytes() == b.tobytes()


class TestFeatureParity:
    def test_score_many_bit_identical(self, workload):
        """The batched peak scan plus the packed Algorithm 1 kernel score
        every row exactly like the scalar feature."""
        _, _, blocks, _ = workload
        _, _, psd = transform_reference(blocks)
        freqs = psd_frequencies(psd.shape[1], 4000.0)
        reference_rows = psd[:10]

        scalar = PeakHarmonicFeature().fit(reference_rows, freqs)
        kernel = packed_harmonic_distances(
            extract_harmonic_peaks_batch(psd, freqs), scalar.baseline_
        )
        assert np.array_equal(scalar.score_many(psd, freqs), kernel)

    def test_cached_rescore_bit_identical(self, workload):
        """A rerun scores every valid row from peaks recalled from the
        row memo, and still matches the scalar feature bit for bit."""
        ids, days, blocks, labels = workload
        pipeline = fresh_batch()
        first = pipeline.run(ids, days, blocks, labels)
        valid = first.valid_mask
        assert (pipeline.peak_hits, pipeline.peak_misses) == (0, valid.sum())
        second = pipeline.run(ids, days, blocks, labels)
        assert (pipeline.peak_hits, pipeline.peak_misses) == (valid.sum(),) * 2

        freqs = psd_frequencies(first.psd.shape[1], 4000.0)
        zone_a = [i for i, zone in sorted(labels.items()) if zone == "A" and valid[i]]
        scalar = PeakHarmonicFeature().fit(first.psd[zone_a], freqs)
        expected = scalar.score_many(first.psd[valid], freqs)
        assert np.array_equal(first.da[valid], expected)
        assert np.array_equal(second.da[valid], expected)


class TestFullRunParity:
    def test_run_bit_identical_including_outlier_and_unstable_sensor(
        self, workload
    ):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch().run(ids, days, blocks, labels)
        # The workload really exercised the interesting paths:
        assert not scalar.valid_mask.all()  # the outlier was flagged
        assert np.isnan(scalar.da[~scalar.valid_mask]).all()
        assert_results_identical(scalar, batch)

    def test_run_parity_with_threaded_executor(self, workload):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        threaded = fresh_batch(executor=FleetExecutor(max_workers=3)).run(
            ids, days, blocks, labels
        )
        assert_results_identical(scalar, threaded)

    def test_run_parity_with_moving_average(self, workload):
        ids, days, blocks, labels = workload
        config = PipelineConfig(moving_average_window=4)
        scalar = ReferencePipeline(config).run(ids, days, blocks, labels)
        batch = fresh_batch(config).run(ids, days, blocks, labels)
        assert_results_identical(scalar, batch)

    def test_warm_rerun_bit_identical(self, workload):
        ids, days, blocks, labels = workload
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch()
        batch.run(ids, days, blocks, labels)
        profile = RuntimeProfile()
        warm = batch.run(ids, days, blocks, labels, profile=profile)
        # Every row of the rerun comes from the row memo, and so do the
        # peaks of every valid row.
        assert batch.transform_hits == blocks.shape[0]
        assert batch.transform_misses == blocks.shape[0]
        assert profile.counters["peak_cache_misses"] == 0
        assert profile.counters["peak_cache_hits"] == warm.valid_mask.sum()
        assert_results_identical(scalar, warm)

    def test_validation_error_parity(self, workload):
        ids, days, blocks, labels = workload
        for bad_labels, match in (
            ({}, "must not be empty"),
            ({10**6: "A"}, "invalid indices"),
        ):
            with pytest.raises(ValueError, match=match):
                ReferencePipeline().run(ids, days, blocks, bad_labels)
            with pytest.raises(ValueError, match=match):
                fresh_batch().run(ids, days, blocks, bad_labels)

    def test_parity_on_alternate_seed(self):
        ids, days, blocks, labels = make_workload(
            n_pumps=4, per_pump=32, num_samples=256, seed=99
        )
        scalar = ReferencePipeline().run(ids, days, blocks, labels)
        batch = fresh_batch().run(ids, days, blocks, labels)
        assert_results_identical(scalar, batch)
