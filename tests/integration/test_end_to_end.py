"""Integration tests: fleet simulation → database → engine → report.

These tests exercise the complete paper workflow on a synthetic fleet and
check the *scientific* properties the paper claims, not just plumbing:
``D_a`` tracks degradation, the learned boundary separates zones, the
peak-harmonic classifier beats the temperature baseline, and RUL
predictions correlate with ground truth.
"""

import numpy as np
import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.metrics import evaluate_labels
from repro.core.classify import ZONE_A, ZONE_D, OrderedThresholdClassifier
from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.simulation import FleetConfig, FleetSimulator
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase


@pytest.fixture(scope="module")
def pipeline_result(small_fleet):
    pumps, service, samples = small_fleet.measurement_arrays()
    _, labels = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    result = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25)).run(
        pumps, service, samples, labels
    )
    return small_fleet, pumps, service, result


class TestScientificProperties:
    def test_da_correlates_with_true_wear(self, pipeline_result):
        dataset, _, _, result = pipeline_result
        valid = result.valid_mask
        corr = np.corrcoef(result.da[valid], dataset.true_wear[valid])[0, 1]
        assert corr > 0.7

    def test_da_separates_healthy_from_hazard(self, pipeline_result):
        dataset, _, _, result = pipeline_result
        valid = result.valid_mask
        da_a = result.da[valid & (dataset.true_zone == ZONE_A)]
        da_d = result.da[valid & (dataset.true_zone == ZONE_D)]
        assert da_d.mean() > 2 * da_a.mean()

    def test_zone_classification_beats_chance_strongly(self, pipeline_result):
        dataset, _, _, result = pipeline_result
        valid = result.valid_mask
        report = evaluate_labels(dataset.true_zone[valid], result.zones[valid])
        assert report.accuracy > 0.6
        assert report.macro_recall > 0.5

    def test_learned_boundary_is_in_paper_ballpark(self, pipeline_result):
        """The paper learns a Zone D boundary of 0.21; our synthetic fleet
        should land in the same order of magnitude."""
        _, _, _, result = pipeline_result
        assert 0.05 < result.zone_d_threshold < 0.6

    def test_rul_sign_agrees_with_ground_truth(self, pipeline_result):
        dataset, pumps, service, result = pipeline_result
        if not result.rul:
            pytest.skip("no lifetime models discovered on this fleet")
        agreements = []
        for pump, prediction in result.rul.items():
            info = dataset.pumps[int(pump)]
            member = pumps == pump
            latest_service = service[member].max()
            true_rul = info.life_days - latest_service
            if abs(true_rul) > 30:  # ignore borderline pumps
                agreements.append(np.sign(prediction.rul_days) == np.sign(true_rul))
        if agreements:
            assert np.mean(agreements) >= 0.5


class TestTemperatureBaselineFails:
    def test_temperature_is_near_chance(self, small_fleet):
        """Figs. 12-14: the temperature feature cannot classify zones."""
        temps = small_fleet.measurement_temperatures()
        zones = small_fleet.true_zone
        gen = np.random.default_rng(0)
        idx = gen.permutation(len(temps))
        train, test = idx[:60], idx[60:]
        # Guard: training set must contain every zone.
        train = np.concatenate(
            [train, [np.nonzero(zones == z)[0][0] for z in ("A", "BC", "D")]]
        )
        clf = OrderedThresholdClassifier().fit(temps[train], zones[train])
        pred = clf.predict(temps[test])
        accuracy = (pred == zones[test]).mean()
        assert accuracy < 0.65  # far below the vibration feature


class TestDatabaseRoundtripEquivalence:
    def test_engine_matches_direct_pipeline(self, small_fleet):
        """Running through SQLite + retrieval API must give the same
        zone decisions as running the pipeline on in-memory arrays."""
        records, labels = small_fleet.expert_labels({"A": 20, "BC": 20, "D": 15})

        pumps, service, samples = small_fleet.measurement_arrays()
        direct = AnalysisPipeline(PipelineConfig(ransac_min_inliers=25)).run(
            pumps, service, samples, labels
        )

        db = VibrationDatabase()
        small_fleet.to_database(db)
        db.labels.add_many(records)
        api = DataRetrievalAPI(
            db, AnalysisPeriod(0.0, small_fleet.config.duration_days + 1)
        )
        engine = VibrationAnalysisEngine(
            api, EngineConfig(pipeline=PipelineConfig(ransac_min_inliers=25))
        )
        report = engine.run()
        db.close()

        # Same measurement count and closely matching D_a statistics
        # (float32 storage introduces tiny differences).
        assert report.pump_ids.shape[0] == pumps.shape[0]
        direct_mean = np.nanmean(direct.da)
        engine_mean = np.nanmean(report.pipeline.da)
        assert engine_mean == pytest.approx(direct_mean, rel=0.05)


class TestSensorNetworkToAnalysis:
    def test_collected_counts_feed_the_pipeline(self):
        """Full stack: synthesize → MEMS counts → fragment → Flush over a
        lossy link → reassemble → convert to g → features."""
        from repro.core.features import psd_feature, psd_frequencies
        from repro.core.peaks import extract_harmonic_peaks
        from repro.sensornet.flush import flush_transfer
        from repro.sensornet.packets import fragment_measurement, reassemble_measurement
        from repro.sensornet.radio import LossyLink
        from repro.simulation.mems import MEMSSensor
        from repro.simulation.signal import VibrationSynthesizer

        gen = np.random.default_rng(5)
        synth = VibrationSynthesizer()
        sensor = MEMSSensor(rng=gen)
        true_block = synth.synthesize(0.3, 1024, 4000.0, gen)
        counts = sensor.measure_counts(true_block, day=0.0, sampling_rate_hz=4000.0)

        packets = fragment_measurement(0, 0, counts)
        assert len(packets) == 120
        stats, received = flush_transfer(packets, LossyLink(0.2, seed=1))
        assert stats.success
        recovered = reassemble_measurement(received)
        assert np.array_equal(recovered, counts)

        block_g = recovered.astype(np.float64) * sensor.scale_g_per_count
        psd = psd_feature(block_g)
        freqs = psd_frequencies(1024, 4000.0)
        peaks = extract_harmonic_peaks(psd, freqs)
        assert len(peaks) > 0

    def test_unstable_fleet_still_analyzable(self):
        config = FleetConfig(
            num_pumps=5,
            duration_days=60,
            report_interval_days=2.0,
            unstable_sensor_fraction=0.4,
            pm_interval_days=None,
            max_initial_age_fraction=0.9,
            seed=21,
        )
        dataset = FleetSimulator(config).run()
        pumps, service, samples = dataset.measurement_arrays()
        _, labels = dataset.expert_labels({"A": 10, "BC": 10, "D": 5})
        result = AnalysisPipeline(PipelineConfig(ransac_min_inliers=15)).run(
            pumps, service, samples, labels
        )
        # Some measurements are excluded, but the analysis completes and
        # keeps the majority.
        assert 0.4 < result.valid_mask.mean() <= 1.0
