"""Tests for the command-line interface (cli.py)."""

import io
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSpecs:
    def test_prints_table1(self):
        code, text = run_cli(["specs"])
        assert code == 0
        assert "Piezo" in text and "MEMS" in text
        assert "4000" in text  # MEMS noise density


class TestPlan:
    def test_prints_requested_grid(self):
        code, text = run_cli(
            ["plan", "--sampling-hz", "150", "--target-years", "3"]
        )
        assert code == 0
        assert "10.2" in text  # the paper's 3-yr anchor
        assert "2,57" in text  # ~2,576 measurements

    def test_infeasible_target_reported(self):
        code, text = run_cli(
            ["plan", "--sampling-hz", "150", "--target-years", "50"]
        )
        assert code == 0
        assert "infeasible" in text


class TestSimulateAnalyze:
    def test_end_to_end_roundtrip(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, text = run_cli(
            [
                "simulate",
                "--db", db_path,
                "--pumps", "4",
                "--days", "50",
                "--interval", "1.0",
                "--labels", "20,20,10",
                "--seed", "11",
            ]
        )
        assert code == 0
        assert "wrote 200 measurements" in text

        code, text = run_cli(["analyze", "--db", db_path, "--moving-average", "4"])
        assert code == 0
        assert "FLEET REPORT" in text
        assert "PER-PUMP STATUS" in text

    def test_simulate_rejects_bad_label_spec(self, tmp_path):
        code, text = run_cli(
            ["simulate", "--db", str(tmp_path / "x.db"), "--labels", "1,2"]
        )
        assert code == 2
        assert "three integers" in text

    def test_simulate_reports_unsatisfiable_label_mix(self, tmp_path):
        code, text = run_cli(
            [
                "simulate",
                "--db", str(tmp_path / "y.db"),
                "--pumps", "2",
                "--days", "5",
                "--interval", "1.0",
                "--labels", "5,5,5000",
                "--seed", "1",
            ]
        )
        assert code == 2
        assert "label mix" in text

    def test_analyze_empty_database_fails_cleanly(self, tmp_path):
        from repro.storage.database import VibrationDatabase

        db_path = str(tmp_path / "empty.db")
        VibrationDatabase(db_path).close()
        code, text = run_cli(["analyze", "--db", db_path])
        assert code == 1
        assert "error" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompactScheduleExport:
    @pytest.fixture()
    def populated_db(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, _ = run_cli(
            [
                "simulate", "--db", db_path,
                "--pumps", "4", "--days", "50", "--interval", "1.0",
                "--labels", "20,20,10", "--seed", "11",
            ]
        )
        assert code == 0
        return db_path

    def test_compact_summarizes_and_deletes(self, populated_db):
        code, text = run_cli(
            ["compact", "--db", populated_db, "--keep-days", "10", "--now", "50"]
        )
        assert code == 0
        assert "summaries written" in text
        assert "raw measurements remain" in text
        # Second run is a no-op.
        code, text = run_cli(
            ["compact", "--db", populated_db, "--keep-days", "10", "--now", "50"]
        )
        assert code == 0
        assert "0 raw measurements deleted" in text

    def test_schedule_prints_plan_or_empty(self, populated_db):
        code, text = run_cli(
            ["schedule", "--db", populated_db, "--moving-average", "4",
             "--capacity", "2", "--horizon", "52"]
        )
        assert code == 0
        assert "period" in text or "no replacements due" in text

    def test_export_roundtrip(self, populated_db, tmp_path):
        out_path = str(tmp_path / "corpus.npz")
        code, text = run_cli(["export", "--db", populated_db, "--out", out_path])
        assert code == 0
        assert "exported 200 measurements" in text

        from repro.storage.traces import import_npz

        corpus = import_npz(out_path)
        assert len(corpus) == 200

    def test_export_empty_range_fails(self, populated_db, tmp_path):
        code, text = run_cli(
            ["export", "--db", populated_db, "--out", str(tmp_path / "x.npz"),
             "--start", "1000", "--end", "2000"]
        )
        assert code == 1
        assert "no measurements" in text


class TestDashboardCommand:
    def test_dashboard_written(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        code, _ = run_cli(
            ["simulate", "--db", db_path, "--pumps", "4", "--days", "50",
             "--interval", "1.0", "--labels", "20,20,10", "--seed", "11"]
        )
        assert code == 0
        out_path = str(tmp_path / "dash.html")
        code, text = run_cli(
            ["dashboard", "--db", db_path, "--out", out_path,
             "--moving-average", "4", "--title", "Line 3 pumps"]
        )
        assert code == 0
        assert "dashboard written" in text
        content = open(out_path).read()
        assert "Line 3 pumps" in content
        assert "<svg" in content

    def test_dashboard_on_empty_db_fails(self, tmp_path):
        from repro.storage.database import VibrationDatabase

        db_path = str(tmp_path / "empty.db")
        VibrationDatabase(db_path).close()
        code, text = run_cli(
            ["dashboard", "--db", db_path, "--out", str(tmp_path / "x.html")]
        )
        assert code == 1
        assert "error" in text


class TestInputValidation:
    """Bad inputs fail fast with ``error: …`` and leave nothing behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["compact", "--keep-days", "10", "--now", "50"],
            ["schedule"],
            ["dashboard", "--out", "dash.html"],
            ["export", "--out", "corpus.npz"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_read_only_commands_refuse_missing_database(self, tmp_path, argv):
        db_path = tmp_path / "typo.db"
        argv = [arg if "." not in arg else str(tmp_path / arg) for arg in argv]
        code, text = run_cli([argv[0], "--db", str(db_path), *argv[1:]])
        assert code == 1
        assert f"error: no database at {db_path}" in text
        assert not db_path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_analyze_rejects_reversed_period(self, tmp_path):
        db_path = tmp_path / "fleet.db"
        code, text = run_cli(
            ["analyze", "--db", str(db_path), "--start", "30", "--end", "5"]
        )
        assert code == 1
        assert text == "error: end_day must be greater than start_day\n"
        assert not db_path.exists()

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_analyze_rejects_non_positive_horizon(self, tmp_path, horizon):
        db_path = tmp_path / "fleet.db"
        code, text = run_cli(["analyze", "--db", str(db_path), "--horizon", horizon])
        assert code == 1
        assert text == "error: horizon_days must be positive\n"
        assert not db_path.exists()

    def test_analyze_rejects_negative_workers(self, tmp_path):
        db_path = tmp_path / "fleet.db"
        code, text = run_cli(["analyze", "--db", str(db_path), "--workers", "-1"])
        assert code == 1
        assert text == "error: max_workers must be non-negative\n"
        assert not db_path.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--capacity", "0", "capacity_per_period must be positive"),
            ("--period-days", "0", "period_days must be positive"),
            ("--margin-days", "-1", "safety_margin_days must be non-negative"),
            ("--horizon", "0", "horizon_periods must be positive"),
        ],
    )
    def test_schedule_rejects_bad_plan_parameters(self, tmp_path, flag, value, message):
        db_path = tmp_path / "fleet.db"
        code, text = run_cli(["schedule", "--db", str(db_path), flag, value])
        assert code == 1
        assert text == f"error: {message}\n"
        assert not db_path.exists()

    def test_simulate_infeasible_label_mix_leaves_no_database(self, tmp_path):
        db_path = tmp_path / "fleet.db"
        code, text = run_cli(
            ["simulate", "--db", str(db_path), "--pumps", "2", "--days", "5",
             "--interval", "0.5", "--labels", "1000,1,1"]
        )
        assert code == 2
        assert text.startswith("error: cannot satisfy label mix: ")
        assert not db_path.exists()

    @pytest.mark.parametrize("command", ["analyze", "schedule", "dashboard"])
    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_rejects_non_positive_moving_average(self, tmp_path, command, window):
        db_path = str(tmp_path / "fleet.db")
        code, _ = run_cli(
            ["simulate", "--db", db_path, "--pumps", "4", "--days", "50",
             "--interval", "1.0", "--labels", "20,20,10", "--seed", "11"]
        )
        assert code == 0
        extra = ["--out", str(tmp_path / "dash.html")] if command == "dashboard" else []
        code, text = run_cli(
            [command, "--db", db_path, "--moving-average", window, *extra]
        )
        assert code == 1
        assert text == "error: moving_average_window must be positive\n"


class TestImportFootprint:
    """``repro analyze`` loads only ``scipy.fft`` (and what it pulls in)
    from scipy; the welch/envelope/drift/Mahalanobis call sites import
    the rest on first use."""

    def test_analyze_imports_skip_scipy_signal_stats_linalg(self):
        probe = (
            "import sys\n"
            "import repro.__main__, repro.analysis.engine, repro.analysis.reporting\n"
            "import repro.core.pipeline, repro.runtime, repro.storage\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert "scipy.fft" in loaded
        for heavy in ("scipy.signal", "scipy.stats", "scipy.linalg"):
            assert heavy not in loaded


class TestOracleParity:
    """``repro analyze`` renders the scalar oracle engine's report, byte
    for byte, on the smoke fleet."""

    def test_analyze_report_equals_oracle_report(self, tmp_path):
        from repro.analysis.engine import EngineConfig
        from repro.analysis.reporting import render_report
        from repro.core.pipeline import PipelineConfig
        from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
        from repro.storage.database import VibrationDatabase
        from tests.reference.engine import ReferenceEngine

        db_path = str(tmp_path / "smoke.db")
        code, text = run_cli(
            ["simulate", "--db", db_path, "--pumps", "6", "--days", "40",
             "--interval", "0.25", "--labels", "20,20,15", "--seed", "7"]
        )
        assert code == 0
        assert "wrote 960 measurements" in text

        code, production = run_cli(["analyze", "--db", db_path])
        assert code == 0

        with VibrationDatabase(db_path) as db:
            engine = ReferenceEngine(
                DataRetrievalAPI(db, AnalysisPeriod(0.0, 1e9)),
                EngineConfig(pipeline=PipelineConfig(moving_average_window=8)),
            )
            oracle = render_report(engine.run(), horizon_days=30.0)
        assert production == oracle + "\n"
