"""A long-lived engine's rolling refresh reuses the transform row memo.

The paper refreshes its analysis period as ``Te_j = Te_{j-1} + delta``:
each refresh sees every measurement of the previous one plus a new tail.
One engine kept alive across refreshes must transform only that tail,
and every report and dashboard it renders must be byte-identical to a
fresh engine's on the same window.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import render_report
from repro.core.pipeline import PipelineConfig
from repro.runtime.profile import RuntimeProfile
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from repro.viz.dashboard import write_dashboard

T0 = 60.0
DELTA = 6.0
ROUNDS = 3
CONFIG = EngineConfig(
    pipeline=PipelineConfig(ransac_min_inliers=25), rotation_hz=29.5
)


@pytest.fixture()
def refresh_db(small_fleet, tmp_path):
    """File-backed DB holding the first window; the rest is held back."""
    db = VibrationDatabase(str(tmp_path / "fleet.db"))
    for meta in small_fleet.sensors:
        db.sensors.add(meta)
    held = sorted(small_fleet.measurements, key=lambda m: m.timestamp_day)
    db.measurements.add_many(m for m in held if m.timestamp_day < T0)
    db.events.add_many(small_fleet.events)
    records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    yield db, [m for m in held if m.timestamp_day >= T0]
    db.close()


def outputs(report, path) -> tuple[bytes, bytes]:
    text = render_report(report).encode()
    return text, write_dashboard(report, path).read_bytes()


def fresh_outputs(db, period, path) -> tuple[bytes, bytes]:
    engine = VibrationAnalysisEngine(DataRetrievalAPI(db, period), CONFIG)
    return outputs(engine.run(), path)


def test_refresh_transforms_only_new_rows_and_matches_fresh_engine(
    refresh_db, tmp_path
):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    previous = engine.run().measurement_ids.size

    for index in range(1, ROUNDS + 1):
        hi = T0 + index * DELTA
        batch = [m for m in held if m.timestamp_day < hi]
        held = held[len(batch):]
        assert batch, "every refresh must bring new measurements"
        db.measurements.add_many(batch)
        api.advance(DELTA)
        profile = RuntimeProfile()
        report = engine.run(profile=profile)
        rows = report.measurement_ids.size
        assert profile.counters["transform_cache_hits"] == previous
        assert profile.counters["transform_cache_misses"] == rows - previous
        assert profile.stages["transform"].items == rows - previous
        assert outputs(report, tmp_path / f"refresh-{index}.html") == fresh_outputs(
            db, api.period, tmp_path / f"fresh-{index}.html"
        )
        previous = rows

    # Rewrite one stored measurement under its existing id: the memo is
    # keyed by content, so exactly that row is transformed again.
    old = db.measurements.query(0.0, T0, [0])[0]
    db.measurements.add_many(
        [dataclasses.replace(old, samples=old.samples * 1.5 + 0.01)]
    )
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert report.measurement_ids.size == previous
    assert profile.counters["transform_cache_hits"] == previous - 1
    assert profile.counters["transform_cache_misses"] == 1
    assert profile.stages["transform"].items == 1
    assert outputs(report, tmp_path / "replaced.html") == fresh_outputs(
        db, api.period, tmp_path / "replaced-fresh.html"
    )
