"""Tests for the HTML fleet dashboard (viz/dashboard.py)."""

import numpy as np
import pytest

from repro.viz.dashboard import render_dashboard, write_dashboard
from tests.analysis.test_reporting import make_report


@pytest.fixture()
def report():
    return make_report({0: "D", 1: "A", 2: "BC"}, {0: -3.0, 1: 250.0, 2: 40.0})


class TestRenderDashboard:
    def test_produces_complete_html_document(self, report):
        doc = render_dashboard(report)
        assert doc.startswith("<!DOCTYPE html>")
        assert "</html>" in doc
        assert "<svg" in doc

    def test_sections_present(self, report):
        doc = render_dashboard(report)
        for section in (
            "Fleet health",
            "Alerts",
            "Fleet degradation",
            "Per-pump status",
            "Maintenance cost",
        ):
            assert section in doc

    def test_zone_badges_carry_text_labels(self, report):
        """Status is never color alone: every badge has a textual label."""
        doc = render_dashboard(report)
        assert "D — hazard" in doc
        assert "A — healthy" in doc
        assert "BC — caution" in doc

    def test_hazard_alert_rendered(self, report):
        doc = render_dashboard(report)
        assert "alert-hazard" in doc
        assert "replace immediately" in doc

    def test_sparkline_per_pump(self, report):
        doc = render_dashboard(report)
        # Three pumps, each with a sparkline polyline plus the scatter.
        assert doc.count("<polyline") == 3

    def test_dark_mode_palette_included(self, report):
        doc = render_dashboard(report)
        assert "prefers-color-scheme: dark" in doc

    def test_marks_have_svg_title_tooltips(self, report):
        doc = render_dashboard(report)
        assert "<title>" in doc

    def test_title_is_escaped(self, report):
        doc = render_dashboard(report, title="<script>alert(1)</script>")
        assert "<script>alert(1)</script>" not in doc
        assert "&lt;script&gt;" in doc

    def test_zone_d_threshold_annotated(self, report):
        doc = render_dashboard(report)
        assert "zone D boundary" in doc

    def test_lifetime_model_legend(self, report):
        doc = render_dashboard(report)
        assert "model 1" in doc
        assert "measurements" in doc

    def test_healthy_fleet_has_no_alert_items(self):
        healthy = make_report({0: "A"}, {0: 500.0})
        doc = render_dashboard(healthy)
        # The CSS class definition is always present; no *list item* should
        # carry it on a healthy fleet.
        assert '<li class="alert-hazard"' not in doc
        assert "No pump reaches hazard" in doc


class TestWriteDashboard:
    def test_writes_file_and_creates_parents(self, report, tmp_path):
        path = write_dashboard(report, tmp_path / "out" / "fleet.html")
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_written_file_renders_all_pumps(self, report, tmp_path):
        path = write_dashboard(report, tmp_path / "fleet.html")
        text = path.read_text(encoding="utf-8")
        for pump in (0, 1, 2):
            assert f"<tr><td>{pump}</td>" in text


class TestEndToEndDashboard:
    def test_real_engine_report_renders(self, tmp_path, small_fleet):
        from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
        from repro.core.pipeline import PipelineConfig
        from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
        from repro.storage.database import VibrationDatabase

        db = VibrationDatabase()
        small_fleet.to_database(db)
        records, _ = small_fleet.expert_labels({"A": 20, "BC": 20, "D": 15})
        db.labels.add_many(records)
        api = DataRetrievalAPI(db, AnalysisPeriod(0.0, 100.0))
        report = VibrationAnalysisEngine(
            api, EngineConfig(pipeline=PipelineConfig(ransac_min_inliers=25))
        ).run()
        db.close()

        path = write_dashboard(report, tmp_path / "real.html")
        text = path.read_text(encoding="utf-8")
        assert text.count("<tr><td>") == small_fleet.config.num_pumps
        assert "<svg" in text


class TestDiagnosisColumn:
    def test_absent_by_default(self, report):
        doc = render_dashboard(report)
        assert "<th>Diagnosis</th>" not in doc

    def test_present_when_report_carries_diagnoses(self, report):
        from repro.core.diagnosis import Diagnosis

        report.diagnoses = {
            0: Diagnosis("bearing_defect", {"bearing_defect": 5.0}),
            1: Diagnosis("healthy", {}),
        }
        doc = render_dashboard(report)
        assert "<th>Diagnosis</th>" in doc
        assert "bearing_defect" in doc
        assert "healthy" in doc
