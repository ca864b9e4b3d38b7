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
import repro.runtime.batch as batch_mod
from repro.runtime import FleetExecutor
from repro.runtime.checkpoint import RowJournal
from repro.runtime.profile import RuntimeProfile
from tests.reference.pipeline import (
    ReferencePipeline,
    features_reference,
    transform_reference,
)

from .conftest import make_workload


def fresh_batch(config: PipelineConfig | None = None, **kwargs) -> AnalysisPipeline:
    """A pipeline with an empty row memo."""
    return AnalysisPipeline(config, **kwargs)


def kernel(blocks, executor, keep=None):
    """A fresh pipeline's transform of every row: ``(outputs, psd)``,
    keeping every PSD row unless ``keep`` says otherwise."""
    psd_rows = None if keep is None else np.flatnonzero(keep)
    features = AnalysisPipeline(executor=executor).transform(blocks, psd_rows=psd_rows)
    return tuple(features[:5]), features.psd


def assert_results_identical(scalar, batch) -> None:
    for name in ("offsets", "rms", "da"):
        a, b = getattr(scalar, name), getattr(batch, name)
        assert np.array_equal(a, b, equal_nan=True), f"{name} diverged"
    for name in ("frequencies", "values", "counts"):
        a, b = getattr(scalar.peaks, name), getattr(batch.peaks, name)
        assert np.array_equal(a, b), f"peak {name} diverged"
    # The production run keeps the PSD of fewer rows than the oracle:
    # each kept row must equal the oracle's.
    assert batch.psd_rows.size
    assert np.array_equal(scalar.psd[batch.psd_rows], batch.psd)
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
        reference = features_reference(blocks)
        features = fresh_batch().transform(blocks)
        assert len(features) == len(reference)
        for ref, got, name in zip(reference, features, features._fields):
            assert np.array_equal(ref, got), name

    def test_transform_parity_across_chunk_boundaries(
        self, workload, tmp_path, monkeypatch
    ):
        _, _, blocks, _ = workload
        reference = features_reference(blocks)
        # Journal segment sizes that divide, straddle, and exceed the row
        # count.
        for chunk_rows in (1, 7, blocks.shape[0], blocks.shape[0] + 5):
            monkeypatch.setattr(batch_mod, "DEFAULT_CHUNK_ROWS", chunk_rows)
            journal = RowJournal(tmp_path / f"ckpt-{chunk_rows}")
            chunked = fresh_batch(journal=journal).transform(blocks)
            for ref, got in zip(reference, chunked):
                assert np.array_equal(ref, got), f"chunk_rows={chunk_rows}"

    def test_transform_empty_matrix(self):
        # The scalar oracle cannot represent an empty result (np.stack
        # needs at least one row); the pipeline degrades gracefully.
        features = fresh_batch().transform(np.empty((0, 128, 3)))
        assert features.offsets.shape == (0, 3)
        assert features.rms.shape == (0,)
        assert features.peak_frequencies.shape == (0, PipelineConfig().num_peaks)
        assert features.peak_counts.shape == (0,)
        assert features.psd.shape == (0, 128)
        assert features.psd_rows.shape == (0,)

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


class CountingInjector:
    """Duck-typed fault injector that fires nothing and records each draw."""

    def __init__(self):
        self.draws: list[str] = []

    def delay_s(self, point):
        self.draws.append(point)
        return 0.0

    def maybe_fail(self, point):
        self.draws.append(point)


class TestThreadedTransformParity:
    """The transform spreads its tiles over ``max_workers`` threads;
    every op is row-local, so the bytes never depend on it."""

    @staticmethod
    def rows(n: int, seed: int = 5) -> np.ndarray:
        return np.random.default_rng(seed).normal(size=(n, 64, 3))

    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_bit_identical_to_reference(self, workers, n):
        blocks = self.rows(n)
        injector = CountingInjector()
        outputs, psd = kernel(
            blocks, FleetExecutor(max_workers=workers, injector=injector)
        )
        assert psd.shape == (n, 64)
        for ref, got in zip(features_reference(blocks), (*outputs, psd)):
            assert np.array_equal(ref, got)
        # Transform tiles bypass the executor's map and its fault draws.
        assert injector.draws == []

    def test_non_finite_row_in_last_tile_raises(self):
        blocks = self.rows(1000)
        blocks[-1, 10, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kernel(blocks, FleetExecutor(max_workers=3))

    def test_checkpointed_threaded_run_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        blocks = self.rows(1000)
        executor = FleetExecutor(max_workers=3)
        # 400-row segments: two multi-tile segments plus a 200-row tail.
        monkeypatch.setattr(batch_mod, "DEFAULT_CHUNK_ROWS", 400)

        def journaled() -> AnalysisPipeline:
            return AnalysisPipeline(
                executor=executor, journal=RowJournal(tmp_path / "ckpt")
            )

        profile = RuntimeProfile()
        first = journaled().transform(blocks, profile)
        assert profile.stages["transform"].items == 1000
        profile = RuntimeProfile()
        resumed = journaled().transform(blocks, profile)
        assert profile.stages["transform"].items == 0
        for ref, a, b in zip(features_reference(blocks), first, resumed):
            assert np.array_equal(ref, a)
            assert a.tobytes() == b.tobytes()


class TestTileKernelParity:
    """One pass per transform tile: the transform equals the scalar
    transform plus a per-row ``extract_harmonic_peaks``, bit for bit, in
    the stored float32 and in float64, for any ``K``, any worker count,
    and a row count that is not a multiple of the tile."""

    N = batch_mod.TRANSFORM_TILE_ROWS + 45

    @staticmethod
    def rows(n: int, k: int, dtype) -> np.ndarray:
        rng = np.random.default_rng(k)
        scale = rng.uniform(0.1, 3.0, size=(n, 1, 3))
        offset = rng.normal(size=(n, 1, 3))
        return (rng.normal(size=(n, k, 3)) * scale + offset).astype(dtype)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 5, 1024])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_scalar_transform_and_peaks(self, dtype, k, workers):
        blocks = self.rows(self.N, k, dtype)
        executor = FleetExecutor(max_workers=workers)
        reference = features_reference(blocks)
        outputs, psd = kernel(blocks, executor)
        for ref, got in zip(reference, (*outputs, psd)):
            assert ref.tobytes() == got.tobytes()
        # Keeping a subset of PSD rows changes no other output.
        keep = np.zeros(self.N, dtype=bool)
        keep[[0, 7, batch_mod.TRANSFORM_TILE_ROWS, self.N - 1]] = True
        kept_outputs, kept_psd = kernel(blocks, executor, keep)
        assert kept_psd.tobytes() == reference[5][keep].tobytes()
        for ref, got in zip(reference, kept_outputs):
            assert ref.tobytes() == got.tobytes()

    @pytest.mark.parametrize("workers", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_row_raises(self, dtype, workers):
        blocks = self.rows(self.N, 64, dtype)
        blocks[self.N - 2, 3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kernel(blocks, FleetExecutor(max_workers=workers))


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

        _, _, psd = transform_reference(blocks)
        freqs = psd_frequencies(psd.shape[1], 4000.0)
        zone_a = [i for i, zone in sorted(labels.items()) if zone == "A" and valid[i]]
        scalar = PeakHarmonicFeature().fit(psd[zone_a], freqs)
        expected = scalar.score_many(psd[valid], freqs)
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
