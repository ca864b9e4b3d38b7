"""Determinism guarantees of the runtime layer.

The runtime's contract is that its execution modes are invisible: for
the same seeded database, the production engine — serial, threaded
transform or supervised fan-out — must render the *byte-identical* operator report the
scalar oracle engine (``tests/reference/``) renders, and repeated runs
of the same engine must agree with themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import render_report
from repro.core.pipeline import PipelineConfig
from repro.runtime import FleetExecutor, RuntimeProfile, SupervisionPolicy
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from tests.reference.engine import ReferenceEngine


@pytest.fixture(scope="module")
def seeded_api(small_fleet):
    db = VibrationDatabase()
    small_fleet.to_database(db)
    records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    yield DataRetrievalAPI(
        db, AnalysisPeriod(0.0, small_fleet.config.duration_days + 1)
    )
    db.close()


def engine_for(api, *, batch: bool, workers: int | None = None, **kwargs):
    """The production engine, or with ``batch=False`` the oracle engine."""
    engine_cls = VibrationAnalysisEngine if batch else ReferenceEngine
    return engine_cls(
        api,
        EngineConfig(
            pipeline=PipelineConfig(ransac_min_inliers=25),
            rotation_hz=29.0,
            max_workers=workers,
        ),
        **kwargs,
    )


class TestReportDeterminism:
    def test_batch_and_scalar_reports_byte_identical(self, seeded_api):
        scalar_text = render_report(engine_for(seeded_api, batch=False).run())
        batch_text = render_report(engine_for(seeded_api, batch=True).run())
        assert batch_text == scalar_text

    def test_supervised_report_matches_oracle(self, seeded_api):
        oracle_text = render_report(engine_for(seeded_api, batch=False).run())
        executor = FleetExecutor(max_workers=2, supervision=SupervisionPolicy())
        report = engine_for(seeded_api, batch=True, executor=executor).run()
        assert report.supervision is not None
        assert render_report(report) == oracle_text

    def test_threaded_fanout_report_byte_identical(self, seeded_api):
        serial_text = render_report(
            engine_for(seeded_api, batch=True, workers=1).run()
        )
        threaded_text = render_report(
            engine_for(seeded_api, batch=True, workers=4).run()
        )
        assert threaded_text == serial_text

    def test_same_engine_twice_is_identical(self, seeded_api):
        engine = engine_for(seeded_api, batch=True, workers=4)
        first, second = engine.run(), engine.run()
        assert render_report(first) == render_report(second)
        assert np.array_equal(first.pipeline.da, second.pipeline.da, equal_nan=True)
        assert np.array_equal(first.pipeline.zones, second.pipeline.zones)

    def test_rul_and_diagnosis_key_order_stable(self, seeded_api):
        scalar = engine_for(seeded_api, batch=False).run()
        threaded = engine_for(seeded_api, batch=True, workers=4).run()
        assert list(scalar.rul.keys()) == list(threaded.rul.keys())
        assert list(scalar.diagnoses.keys()) == list(threaded.diagnoses.keys())
        for pump, diagnosis in scalar.diagnoses.items():
            assert threaded.diagnoses[pump] == diagnosis


class TestProfiledRunDeterminism:
    def test_profiling_does_not_change_the_report(self, seeded_api):
        profile = RuntimeProfile()
        profiled = render_report(engine_for(seeded_api, batch=True).run(profile))
        plain = render_report(engine_for(seeded_api, batch=True).run())
        assert profiled == plain
        # All batched stages reported in.
        for stage in ("transform", "preprocess", "score_da", "predict_rul"):
            assert stage in profile.stages
        assert "diagnose" in profile.stages
        assert profile.total_seconds > 0
