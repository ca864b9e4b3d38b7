"""Tests for the end-to-end engine (engine.py)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine, label_rows
from repro.core.pipeline import PipelineConfig
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from repro.storage.records import LabelRecord


@pytest.fixture(scope="module")
def loaded_db(small_fleet):
    db = VibrationDatabase()
    small_fleet.to_database(db)
    records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    yield small_fleet, db
    db.close()


@pytest.fixture(scope="module")
def report(loaded_db):
    dataset, db = loaded_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, dataset.config.duration_days + 1))
    engine = VibrationAnalysisEngine(
        api, EngineConfig(pipeline=PipelineConfig(ransac_min_inliers=25))
    )
    return engine.run()


class TestEngineRun:
    def test_report_covers_all_pumps(self, loaded_db, report):
        dataset, _ = loaded_db
        assert set(report.pump_ids) == set(range(dataset.config.num_pumps))

    def test_labels_were_used(self, report):
        assert report.n_labels_used > 40

    def test_zone_predictions_present(self, loaded_db, report):
        dataset, _ = loaded_db
        for pump in range(dataset.config.num_pumps):
            assert report.zone_of(pump) in ("A", "BC", "D", "")

    def test_rul_predictions_when_models_found(self, report):
        if report.lifetime_models:
            assert report.rul
            for prediction in report.rul.values():
                assert prediction.slope > 0

    def test_wasted_rul_accounting_matches_events(self, loaded_db, report):
        dataset, _ = loaded_db
        assert len(report.events) == len(dataset.events)
        assert report.wasted_rul["total_usd"] >= 0

    def test_summary_lines_render(self, loaded_db, report):
        dataset, _ = loaded_db
        lines = report.summary_lines()
        assert len(lines) == dataset.config.num_pumps + 1
        assert lines[0].startswith("pump")

    def test_zone_of_unknown_pump(self, report):
        assert report.zone_of(999) == ""


class TestEngineErrors:
    def test_empty_period_raises(self, loaded_db):
        _, db = loaded_db
        api = DataRetrievalAPI(db, AnalysisPeriod(10_000.0, 10_001.0))
        with pytest.raises(ValueError, match="no measurements"):
            VibrationAnalysisEngine(api).run()

    def test_no_labels_raises(self, small_fleet):
        db = VibrationDatabase()
        small_fleet.to_database(db)  # measurements but no labels
        api = DataRetrievalAPI(db, AnalysisPeriod(0.0, 100.0))
        with pytest.raises(ValueError, match="labels"):
            VibrationAnalysisEngine(api).run()
        db.close()


class TestEngineDiagnosis:
    def test_diagnosis_disabled_by_default(self, report):
        assert report.diagnoses == {}

    def test_diagnosis_produced_when_rotation_known(self, loaded_db):
        from repro.simulation.signal import MachineProfile

        dataset, db = loaded_db
        api = DataRetrievalAPI(
            db, AnalysisPeriod(0.0, dataset.config.duration_days + 1)
        )
        engine = VibrationAnalysisEngine(
            api,
            EngineConfig(
                pipeline=PipelineConfig(ransac_min_inliers=25),
                rotation_hz=MachineProfile().rotation_hz,
            ),
        )
        diagnosed = engine.run()
        assert set(diagnosed.diagnoses) <= set(range(dataset.config.num_pumps))
        assert diagnosed.diagnoses, "expected at least one diagnosis"
        from repro.core.diagnosis import (
            BEARING_DEFECT,
            HEALTHY,
            IMBALANCE,
            LOOSENESS,
            MISALIGNMENT,
        )

        valid_labels = {HEALTHY, IMBALANCE, MISALIGNMENT, LOOSENESS, BEARING_DEFECT}
        assert all(d.label in valid_labels for d in diagnosed.diagnoses.values())

        from repro.analysis.reporting import render_report

        text = render_report(diagnosed)
        assert "SPECTRAL DIAGNOSIS" in text


class KillEverySecondSubmission:
    """Duck-typed injector: every second supervised chunk submission dies."""

    def __init__(self):
        self.submissions = 0

    def kills(self, point):
        self.submissions += 1
        return self.submissions % 2 == 0

    def delay_s(self, point):
        return 0.0

    def maybe_fail(self, point):
        return None


class TestEngineSupervision:
    def test_profile_counts_the_reports_supervision_delta(self, loaded_db):
        """Restarts in the diagnosis fan-out land in the report and in
        the profile alike: both come from one per-run delta."""
        from repro.runtime import FleetExecutor, RuntimeProfile, SupervisionPolicy

        dataset, db = loaded_db
        period = AnalysisPeriod(0.0, dataset.config.duration_days + 1)
        api = DataRetrievalAPI(db, period)
        executor = FleetExecutor(
            max_workers=2,
            injector=KillEverySecondSubmission(),
            supervision=SupervisionPolicy(backoff_base_s=0.0, backoff_max_s=0.0),
        )
        engine = VibrationAnalysisEngine(
            api,
            EngineConfig(
                pipeline=PipelineConfig(ransac_min_inliers=25), rotation_hz=29.5
            ),
            executor=executor,
        )
        for _ in range(2):  # the second run's delta excludes the first's
            profile = RuntimeProfile()
            report = engine.run(profile=profile)
            assert report.diagnoses
            assert report.supervision.restarts > 0
            for key in ("restarts", "worker_deaths", "hung_chunks",
                        "salvaged_chunks", "abandoned_chunks"):
                assert profile.counters[f"supervision_{key}"] == getattr(
                    report.supervision, key
                ), key


class TestEngineConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EngineConfig(rotation_hz=0.0)
        with pytest.raises(ValueError):
            EngineConfig(diagnosis_window=0)
        with pytest.raises(ValueError, match="max_workers must be non-negative"):
            EngineConfig(max_workers=-1)


def _dict_label_rows(pumps, mids, labels) -> dict[int, str]:
    """The per-row dict join ``label_rows`` replaced."""
    position = {(int(p), int(m)): i for i, (p, m) in enumerate(zip(pumps, mids))}
    train: dict[int, str] = {}
    for record in labels:
        idx = position.get((record.pump_id, record.measurement_id))
        if idx is not None:
            train[idx] = record.zone
    return train


class TestLabelRows:
    ids = st.integers(-3, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(ids, ids), max_size=12),
        labels=st.lists(
            st.tuples(ids, ids, st.sampled_from(["A", "BC", "D"])), max_size=12
        ),
    )
    @example(
        # Two sources label one measurement, and the row occurs twice:
        # the last record wins, on the last row.
        rows=[(0, 1), (2, 5), (0, 1)],
        labels=[(0, 1, "A"), (2, 5, "D"), (0, 1, "BC"), (9, 9, "A")],
    )
    def test_equals_the_dict_join(self, rows, labels):
        pumps = np.asarray([p for p, _ in rows], dtype=int)
        mids = np.asarray([m for _, m in rows], dtype=int)
        records = [
            LabelRecord(pump_id=p, measurement_id=m, zone=z, source=str(i))
            for i, (p, m, z) in enumerate(labels)
        ]
        got = label_rows(pumps, mids, records)
        expected = _dict_label_rows(pumps, mids, records)
        assert list(got.items()) == list(expected.items())
