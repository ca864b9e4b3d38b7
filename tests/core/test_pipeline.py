"""Tests for the Fig. 7 layered pipeline (pipeline.py)."""

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline, PipelineConfig, psd_positions
from repro.runtime.cache import row_digests


@pytest.fixture(scope="module")
def fleet_inputs(small_fleet):
    pumps, service, samples = small_fleet.measurement_arrays()
    _, labels = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    return small_fleet, pumps, service, samples, labels


class TestLayers:
    def test_transform_shapes(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        pipeline = AnalysisPipeline()
        features = pipeline.transform(samples)
        n, k = samples.shape[0], samples.shape[1]
        width = pipeline.config.num_peaks
        assert features.offsets.shape == (n, 3)
        assert features.rms.shape == (n,)
        assert features.peak_frequencies.shape == (n, width)
        assert features.peak_values.shape == (n, width)
        assert features.peak_counts.shape == (n,)
        assert features.psd.shape == (n, k)
        np.testing.assert_array_equal(features.psd_rows, np.arange(n))

    def test_transform_keeps_only_the_psd_rows_asked_for(self, fleet_inputs):
        _, _, _, samples, _ = fleet_inputs
        full = AnalysisPipeline().transform(samples)
        rows = [3, 0, 17, 3]
        kept = AnalysisPipeline().transform(samples, psd_rows=rows)
        np.testing.assert_array_equal(kept.psd_rows, [0, 3, 17])
        assert kept.psd.tobytes() == full.psd[[0, 3, 17]].tobytes()
        positions = psd_positions(kept.psd_rows, [17, 0])
        assert kept.psd[positions].tobytes() == full.psd[[17, 0]].tobytes()
        with pytest.raises(ValueError, match="not kept"):
            psd_positions(kept.psd_rows, [1])
        with pytest.raises(ValueError, match="not kept"):
            psd_positions(kept.psd_rows, [18])
        for got, want in zip(kept[:5], full[:5]):  # every per-row field
            assert got.tobytes() == want.tobytes()

    def test_transform_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AnalysisPipeline().transform(np.zeros((4, 16, 2)))

    def test_preprocess_keeps_stable_sensors(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        pipeline = AnalysisPipeline()
        offsets = pipeline.transform(samples).offsets
        valid = pipeline.preprocess(pumps, offsets, service)
        # This fleet has only stable sensors: nearly everything is valid.
        assert valid.mean() > 0.95

    @pytest.mark.parametrize("window", [0, -5])
    def test_config_rejects_non_positive_moving_average(self, window):
        with pytest.raises(ValueError, match="moving_average_window must be positive"):
            PipelineConfig(moving_average_window=window)

    def test_frequencies_respect_config(self):
        pipeline = AnalysisPipeline(PipelineConfig(sampling_rate_hz=8000.0))
        freqs = pipeline.frequencies(512)
        assert freqs[-1] == pytest.approx(8000.0 / 2 * 511 / 512)


class TestRun:
    def test_full_run_produces_consistent_artifacts(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        n = pumps.shape[0]
        assert result.valid_mask.shape == (n,)
        assert result.da.shape == (n,)
        assert result.zones.shape == (n,)
        assert np.isfinite(result.da[result.valid_mask]).all()
        assert np.isnan(result.da[~result.valid_mask]).all()
        assert len(result.zone_thresholds) == 2
        assert result.zone_thresholds[0] < result.zone_thresholds[1]

    def test_predicted_zones_correlate_with_truth(self, fleet_inputs):
        dataset, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        valid = result.valid_mask
        accuracy = (result.zones[valid] == dataset.true_zone[valid]).mean()
        assert accuracy > 0.6

    def test_rul_predictions_cover_pumps(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        result = pipeline.run(pumps, service, samples, labels)
        if result.lifetime_models:
            assert set(result.rul) <= set(int(p) for p in pumps)
            for prediction in result.rul.values():
                assert np.isfinite(prediction.rul_days) or prediction.rul_days == np.inf

    def test_moving_average_smooths_da(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        raw = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25)).run(
            pumps, service, samples, labels
        )
        smoothed = AnalysisPipeline(
            PipelineConfig(moving_average_window=5, ransac_min_inliers=25)
        ).run(pumps, service, samples, labels)
        # Per-pump variance of first differences must not grow.
        pump = pumps[0]
        member = np.nonzero((pumps == pump) & raw.valid_mask)[0]
        order = member[np.argsort(service[member])]
        raw_rough = np.diff(raw.da[order]).std()
        smooth_rough = np.diff(smoothed.da[order]).std()
        assert smooth_rough <= raw_rough + 1e-12

    def test_rejects_empty_labels(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        with pytest.raises(ValueError, match="train_labels"):
            AnalysisPipeline().run(pumps, service, samples, {})

    def test_rejects_out_of_range_label_indices(self, fleet_inputs):
        _, pumps, service, samples, _ = fleet_inputs
        with pytest.raises(ValueError, match="invalid indices"):
            AnalysisPipeline().run(
                pumps, service, samples, {10**9: "A"}
            )

    def test_rejects_misaligned_arrays(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        with pytest.raises(ValueError, match="align"):
            AnalysisPipeline().run(pumps[:-1], service, samples, labels)


class TestEpochSplitting:
    def test_service_reset_isolates_sensor_epochs(self):
        """A pump replacement (service-time reset) must not poison the
        new sensor's offset regime."""
        gen = np.random.default_rng(0)

        def blocks_with_offset(n, offset):
            out = []
            for _ in range(n):
                block = gen.normal(0, 0.05, size=(128, 3))
                block += np.asarray(offset)[None, :]
                out.append(block)
            return np.stack(out)

        # Epoch 1: offset A; epoch 2 (after replacement): offset B.
        samples = np.concatenate(
            [
                blocks_with_offset(30, (0.1, -0.2, 1.0)),
                blocks_with_offset(30, (0.9, 0.4, 0.3)),
            ]
        )
        pumps = np.zeros(60, dtype=int)
        service = np.concatenate([np.arange(30.0), np.arange(30.0)])

        pipeline = AnalysisPipeline()
        offsets = pipeline.transform(samples).offsets

        with_epochs = pipeline.preprocess(pumps, offsets, service)
        assert with_epochs.all(), "both epochs are individually stable"

        without_epochs = pipeline.preprocess(pumps, offsets, None)
        # Without epoch awareness, one regime gets flagged wholesale.
        assert without_epochs.sum() <= 30


class TestStoredPrecision:
    """Float32 samples — the stored precision — run without a whole-matrix
    float64 upcast, and render exactly what their float64 upcast renders."""

    def test_float32_run_equals_float64_run(self):
        from repro.runtime.fleet import FleetExecutor
        from tests.runtime.conftest import make_workload

        ids, days, blocks, labels = make_workload(seed=2)
        samples = blocks.astype(np.float32)
        results = [
            AnalysisPipeline(executor=FleetExecutor(max_workers=2)).run(
                ids, days, data, labels
            )
            for data in (samples, samples.astype(np.float64))
        ]
        for name in ("valid_mask", "offsets", "rms", "psd", "da", "zones"):
            np.testing.assert_array_equal(
                getattr(results[0], name), getattr(results[1], name), err_msg=name
            )

    def test_peak_memory_stays_below_one_float64_copy(self):
        """``transform`` then ``run`` (a full memo hit) on float32 samples
        peak below the bytes of one float64 copy of the input:
        tracemalloc counts numpy buffers, and only tiles are upcast."""
        import tracemalloc

        from repro.runtime.fleet import FleetExecutor
        from tests.runtime.conftest import make_workload

        ids, days, blocks, labels = make_workload(
            n_pumps=32, per_pump=256, num_samples=256, seed=5
        )
        samples = blocks.astype(np.float32)
        del blocks
        pipeline = AnalysisPipeline(executor=FleetExecutor(max_workers=1))
        tracemalloc.start()
        try:
            pipeline.transform(samples)
            pipeline.run(ids, days, samples, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < samples.size * 8


class TestRowKeys:
    """``run(row_keys=)``: the caller keys every row and passes only the
    rows the row memo lacks."""

    def test_keyed_runs_equal_digested_runs(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        config = PipelineConfig(ransac_min_inliers=25)
        expected = AnalysisPipeline(config).run(pumps, service, samples, labels)
        pipeline = AnalysisPipeline(config)
        keys = row_digests(samples)
        cold = pipeline.run(pumps, service, samples, labels, row_keys=keys)
        warm = pipeline.run(pumps, service, samples[:0], labels, row_keys=keys)
        for result in (cold, warm):
            assert result.da.tobytes() == expected.da.tobytes()
            for name in ("frequencies", "values", "counts"):
                got, want = getattr(result.peaks, name), getattr(expected.peaks, name)
                assert got.tobytes() == want.tobytes()
            assert result.psd_rows.tobytes() == expected.psd_rows.tobytes()
            assert result.psd.tobytes() == expected.psd.tobytes()
        assert pipeline.transform_hits == len(keys)

    def test_a_row_misses_for_its_own_wanted_psd_only(self):
        """Rows 1 and 2 share content; once row 2's PSD is wanted and the
        memo lacks it, row 2 alone is transformed again."""
        blocks = np.random.default_rng(4).standard_normal((2, 16, 3))
        samples = blocks[[0, 1, 1]]
        keys = row_digests(samples)
        pipeline = AnalysisPipeline()
        pipeline.transform(samples, row_keys=keys, psd_rows=[0])
        features = pipeline.transform(samples[[2]], row_keys=keys, psd_rows=[0, 2])
        assert (pipeline.transform_hits, pipeline.transform_misses) == (2, 4)
        expected = AnalysisPipeline().transform(samples, psd_rows=[0, 2])
        for got, want in zip(features, expected):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rows_must_match_the_keys_the_memo_lacks(self, fleet_inputs):
        _, pumps, service, samples, labels = fleet_inputs
        pipeline = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25))
        keys = row_digests(samples)
        pipeline.run(pumps, service, samples, labels, row_keys=keys)
        # Every key is memoized now: a row passed anyway is an error...
        with pytest.raises(ValueError, match="memo lacks"):
            pipeline.run(pumps, service, samples[:1], labels, row_keys=keys)
        # ...and so is a missing row for a key the memo lacks.
        with pytest.raises(ValueError, match="memo lacks"):
            pipeline.run(
                pumps, service, samples[:0], labels, row_keys=[b"new"] + keys[1:]
            )
        with pytest.raises(ValueError, match="must align"):
            pipeline.run(pumps, service, samples[:0], labels, row_keys=keys[1:])


class TestPsdMemo:
    """The PSD memo's mean sums rows in place, bit-identical to a gathered
    ``.mean(axis=0)``: this guards against numpy changing the order in
    which it reduces axis 0 of a C-contiguous matrix."""

    @staticmethod
    def memo(k: int, n: int = 150, zero_rows=()):
        blocks = np.random.default_rng(k).normal(size=(n, k, 3))
        blocks[list(zero_rows)] = 0.0
        pipeline = AnalysisPipeline()
        features = pipeline.transform(blocks)
        return pipeline, row_digests(blocks), features.psd

    @pytest.mark.parametrize("k", [1023, 1024, 4096])
    @pytest.mark.parametrize(
        "pick", [lambda n: [n // 2], lambda n: range(n), lambda n: range(0, n, 2)]
    )
    def test_mean_equals_a_gathered_mean(self, k, pick):
        pipeline, keys, psd = self.memo(k)
        rows = list(pick(psd.shape[0]))
        got = pipeline.psd_mean([keys[i] for i in rows])
        want = psd[rows].mean(axis=0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rows_of_zeros(self):
        pipeline, keys, psd = self.memo(1024, zero_rows=range(0, 150, 3))
        for rows in (list(range(0, 150, 3)), list(range(150))):
            got = pipeline.psd_mean([keys[i] for i in rows])
            want = psd[rows].mean(axis=0)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_retain_keeps_the_named_rows_bytes_and_shrinks(self):
        pipeline, keys, psd = self.memo(256)
        rows = [3, 70, 71, 149]
        pipeline.retain_psd([keys[i] for i in rows] + [b"not a row key"])
        assert set(pipeline.psd_keys) == {keys[i] for i in rows}
        assert [psd.shape for psd in pipeline._psd_parts] == [(len(rows), 256)]
        for i in rows:
            got = pipeline.psd_mean([keys[i]])
            assert got.tobytes() == psd[i].tobytes()
