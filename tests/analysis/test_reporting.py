"""Tests for operator report rendering (reporting.py)."""

import numpy as np
import pytest

from repro.analysis.engine import AnalysisReport
from repro.analysis.reporting import (
    build_alerts,
    fleet_health_summary,
    render_report,
)
from repro.core.peaks import PackedPeaks
from repro.core.pipeline import PipelineResult
from repro.core.ransac import LineModel
from repro.core.rul import RULPrediction


def make_report(zones_by_pump: dict[int, str], rul_by_pump: dict[int, float]):
    """Assemble a minimal AnalysisReport by hand."""
    pump_ids = []
    service = []
    zones = []
    for pump, zone in zones_by_pump.items():
        pump_ids.extend([pump, pump])
        service.extend([1.0, 2.0])
        zones.extend(["A", zone])  # latest measurement carries the zone
    n = len(pump_ids)
    rul = {
        pump: RULPrediction(
            model_index=0,
            slope=0.001,
            intercept=0.05,
            current_service_days=2.0,
            crossing_service_days=2.0 + days,
            rul_days=days,
        )
        for pump, days in rul_by_pump.items()
    }
    pipeline = PipelineResult(
        valid_mask=np.ones(n, dtype=bool),
        offsets=np.zeros((n, 3)),
        rms=np.zeros(n),
        peaks=PackedPeaks(np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n, dtype=int)),
        psd=np.zeros((n, 4)),
        psd_rows=np.arange(n),
        da=np.linspace(0.1, 0.2, n),
        zones=np.asarray(zones, dtype=object),
        zone_thresholds=np.asarray([0.15, 0.3]),
        zone_d_threshold=0.3,
        lifetime_models=[
            LineModel(slope=0.001, intercept=0.05, inlier_indices=np.arange(n),
                      residual_threshold=0.05)
        ],
        rul=rul,
    )
    return AnalysisReport(
        pump_ids=np.asarray(pump_ids),
        measurement_ids=np.arange(n),
        service_days=np.asarray(service),
        pipeline=pipeline,
        events=[],
        wasted_rul={
            "pm_wasted_days": 100.0,
            "pm_wasted_usd": 10_000.0,
            "bm_overrun_days": 0.0,
            "bm_penalty_usd": 0.0,
            "total_usd": 10_000.0,
        },
        n_labels_used=42,
    )


class TestBuildAlerts:
    def test_hazard_zone_triggers_hazard_alert(self):
        report = make_report({0: "D", 1: "A"}, {0: 5.0, 1: 300.0})
        alerts = build_alerts(report)
        assert len(alerts) == 1
        assert alerts[0].severity == "hazard"
        assert alerts[0].pump_id == 0

    def test_negative_rul_triggers_hazard_even_in_bc(self):
        report = make_report({0: "BC"}, {0: -12.0})
        alerts = build_alerts(report)
        assert alerts[0].severity == "hazard"
        assert "replace immediately" in alerts[0].message

    def test_upcoming_alert_within_horizon(self):
        report = make_report({0: "BC", 1: "A"}, {0: 20.0, 1: 200.0})
        alerts = build_alerts(report, horizon_days=30.0)
        assert len(alerts) == 1
        assert alerts[0].severity == "upcoming"
        assert "schedule replacement" in alerts[0].message

    def test_healthy_fleet_has_no_alerts(self):
        report = make_report({0: "A", 1: "BC"}, {0: 200.0, 1: 150.0})
        assert build_alerts(report) == []

    def test_ordering_hazard_first_then_by_rul(self):
        report = make_report(
            {0: "BC", 1: "D", 2: "BC"}, {0: 25.0, 1: -5.0, 2: 10.0}
        )
        alerts = build_alerts(report, horizon_days=30.0)
        assert [a.pump_id for a in alerts] == [1, 2, 0]

    def test_rejects_bad_horizon(self):
        report = make_report({0: "A"}, {})
        with pytest.raises(ValueError):
            build_alerts(report, horizon_days=0.0)

    def test_pump_without_prediction_in_zone_d_still_alerts(self):
        report = make_report({0: "D"}, {})
        alerts = build_alerts(report)
        assert alerts[0].severity == "hazard"
        assert np.isnan(alerts[0].rul_days)


class TestFleetHealthSummary:
    def test_counts_latest_zone_per_pump(self):
        report = make_report({0: "A", 1: "BC", 2: "BC", 3: "D"}, {})
        summary = fleet_health_summary(report)
        assert summary["A"] == 1
        assert summary["BC"] == 2
        assert summary["D"] == 1


class TestRenderReport:
    def test_contains_all_sections(self):
        report = make_report({0: "D", 1: "A"}, {0: -3.0, 1: 250.0})
        text = render_report(report)
        assert "FLEET REPORT" in text
        assert "ALERTS" in text
        assert "PER-PUMP STATUS" in text
        assert "LIFETIME MODELS" in text
        assert "MAINTENANCE COST" in text
        assert "$10,000" in text
        assert "replace immediately" in text

    def test_no_alert_message_for_healthy_fleet(self):
        report = make_report({0: "A"}, {0: 500.0})
        text = render_report(report, horizon_days=30.0)
        assert "none — no pump reaches hazard" in text
