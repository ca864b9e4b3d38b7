"""Retrieval streams verified rows into the transform, batch by batch.

The engine never holds a window's ``(N, K, 3)`` sample matrix: each
batch of CRC-verified, decoded rows is transformed as the cursor reaches
it, non-finite rows are skipped inside the batch, and checksum failures
that move the majority ``K`` after rows were transformed restart the
stream.  In every case the report and its ``DataHealth`` must equal the
scalar oracle engine's (``tests/reference/``), which decodes the whole
window into one dense matrix first, and ``rows_verified`` /
``rows_decoded`` keep their meaning: every row retrieval read, and the
rows it decoded.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.runtime.batch as batch_mod
import repro.storage.database as database_mod
from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import render_report
from repro.core.pipeline import PipelineConfig
from repro.runtime.profile import RuntimeProfile
from repro.simulation.fleet import FleetConfig, FleetSimulator
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import VibrationDatabase
from repro.storage.records import LabelRecord
from tests.reference.engine import ReferenceEngine

#: Rows per streamed batch in these tests, so a small fleet spans many
#: batches and their boundaries.
BATCH = 16
PERIOD = AnalysisPeriod(-1.0, 1e9)
PLAIN = EngineConfig(pipeline=PipelineConfig(ransac_min_inliers=25))
DIAGNOSING = dataclasses.replace(PLAIN, rotation_hz=29.5)
CONFIGS = pytest.mark.parametrize(
    "config", [PLAIN, DIAGNOSING], ids=["plain", "diagnosing"]
)


@pytest.fixture()
def small_batches(monkeypatch):
    monkeypatch.setattr(database_mod, "STREAM_BATCH_ROWS", BATCH)


@pytest.fixture()
def fleet_db(small_fleet, tmp_path):
    db = VibrationDatabase(str(tmp_path / "fleet.db"))
    small_fleet.to_database(db)
    records, _ = small_fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    yield db
    db.close()


def assert_matches_oracle(db, config, injector=None, workers=None):
    """Run the production engine and the oracle; return the report and
    the production run's profile."""
    config = dataclasses.replace(config, max_workers=workers)
    profile = RuntimeProfile()
    report = VibrationAnalysisEngine(
        DataRetrievalAPI(db, PERIOD, injector=injector), config
    ).run(profile=profile)
    oracle = ReferenceEngine(
        DataRetrievalAPI(db, PERIOD, injector=injector), config
    ).run()
    assert render_report(report) == render_report(oracle)
    assert report.data_health == oracle.data_health
    return report, profile


def window_pairs(db) -> list[tuple[int, int]]:
    """``(pump_id, measurement_id)`` of every window row, in row order."""
    window = db.measurements.query_arrays()
    return list(zip(window.pump_ids.tolist(), window.measurement_ids.tolist()))


def store_nan_block(db, pair) -> None:
    """Rewrite one row with a NaN block; the stored CRC matches it."""
    record = next(
        r for r in db.measurements.query() if (r.pump_id, r.measurement_id) == pair
    )
    samples = np.array(record.samples)
    samples[100:110] = np.nan
    db.measurements.add(dataclasses.replace(record, samples=samples))


@CONFIGS
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize(
    "rows", [(BATCH // 2,), (BATCH - 1, BATCH)], ids=["mid-batch", "boundary"]
)
def test_nan_rows_are_quarantined_inside_the_batch(
    fleet_db, small_batches, rows, workers, config
):
    pairs = window_pairs(fleet_db)
    for row in rows:
        store_nan_block(fleet_db, pairs[row])
    report, profile = assert_matches_oracle(fleet_db, config, workers=workers)
    health = report.data_health
    assert health.n_quarantined == len(rows)
    assert health.analyzed == len(pairs) - len(rows)
    assert profile.counters["rows_verified"] == len(pairs)
    assert profile.counters["rows_decoded"] == len(pairs)
    assert profile.stages["transform"].items == len(pairs) - len(rows)


def test_checksum_failures_that_move_k_restart_the_stream(fleet_db, small_batches):
    """The window's own rows are stored at K=512 and interleaved with one
    K=1,024 row more of other pumps, so K=1,024 is the majority and its
    rows are transformed batch by batch while the cursor runs; 20 of
    them fail their CRC, which moves the verified majority to K=512 only
    once the cursor has ended."""
    records = fleet_db.measurements.query()
    fleet_db.measurements.add_many(
        dataclasses.replace(r, samples=r.samples[:512]) for r in records
    )
    filler = [
        dataclasses.replace(r, pump_id=100 + r.pump_id, measurement_id=i)
        for i, r in enumerate(records + records[:1])
    ]
    fleet_db.measurements.add_many(filler)
    for r in filler[::16][:20]:
        fleet_db.measurements.corrupt_blob(r.pump_id, r.measurement_id)

    report, profile = assert_matches_oracle(fleet_db, PLAIN)
    health = report.data_health
    assert health.n_corrupt == 20
    assert health.n_dropped == len(filler) - 20
    assert health.analyzed == len(records)
    assert profile.counters["rows_verified"] == len(records) + len(filler)
    assert profile.counters["rows_decoded"] == len(records)
    # The K=1,024 rows streamed before the flip were transformed, then
    # thrown away.
    assert profile.stages["transform"].items > len(records)
    assert report.pipeline.psd.shape[1] == 512


class DuplicateRows:
    """Duck-typed chaos injector: every read returns some records twice."""

    def __init__(self, pairs):
        self.pairs = set(pairs)

    def maybe_fail(self, point):
        pass

    def mutate_measurements(self, point, records):
        out = []
        for r in records:
            out.append(r)
            if (r.pump_id, r.measurement_id) in self.pairs:
                out.append(r)
        return out


@CONFIGS
def test_a_duplicated_read_matches_the_oracle(fleet_db, small_batches, config):
    pairs = window_pairs(fleet_db)
    zone_a = next(
        (r.pump_id, r.measurement_id)
        for r in fleet_db.labels.query(only_valid=True)
        if r.zone == "A"
    )
    injector = DuplicateRows([pairs[BATCH - 1], pairs[3], zone_a])
    report, profile = assert_matches_oracle(fleet_db, config, injector=injector)
    assert report.data_health.analyzed == len(pairs) + 3
    assert profile.counters["rows_verified"] == len(pairs) + 3
    assert profile.counters["rows_decoded"] == len(pairs) + 3


@CONFIGS
def test_a_zone_a_label_added_to_a_memoised_row(fleet_db, small_batches, config):
    engine = VibrationAnalysisEngine(DataRetrievalAPI(fleet_db, PERIOD), config)
    first = engine.run()
    labelled = {(r.pump_id, r.measurement_id) for r in fleet_db.labels.query()}
    pair = next(
        pair
        for pair in zip(first.pump_ids.tolist(), first.measurement_ids.tolist())
        if pair not in labelled
    )
    fleet_db.labels.add(LabelRecord(pump_id=pair[0], measurement_id=pair[1], zone="A"))
    # The memo holds that row's PSD only if diagnosis read it.
    pipeline = engine._pipeline
    row = list(zip(first.pump_ids.tolist(), first.measurement_ids.tolist())).index(pair)
    decoded = 0 if pipeline._memo_keys[row] in pipeline.psd_keys else 1
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    oracle = ReferenceEngine(DataRetrievalAPI(fleet_db, PERIOD), config).run()
    assert render_report(report) == render_report(oracle)
    assert report.data_health == oracle.data_health
    assert profile.counters["rows_verified"] == first.measurement_ids.size
    assert profile.counters["rows_decoded"] == decoded
    assert profile.stages["transform"].items == decoded


def test_journal_segments_straddle_batches_and_skip_nan_rows(
    fleet_db, small_batches, monkeypatch, tmp_path
):
    """24-row journal segments over 16-row batches: a segment closes
    inside a batch.  The NaN row is quarantined and never journaled, so a
    resumed engine recalls every other row and decodes that one again."""
    monkeypatch.setattr(batch_mod, "DEFAULT_CHUNK_ROWS", 24)
    pairs = window_pairs(fleet_db)
    store_nan_block(fleet_db, pairs[BATCH + 3])
    config = dataclasses.replace(PLAIN, checkpoint_dir=str(tmp_path / "ckpt"))
    first, _ = assert_matches_oracle(fleet_db, config)
    n = first.measurement_ids.size
    assert n == len(pairs) - 1
    assert len(list((tmp_path / "ckpt").glob("segment-*.npz"))) == -(-len(pairs) // 24)
    profile = RuntimeProfile()
    resumed = VibrationAnalysisEngine(DataRetrievalAPI(fleet_db, PERIOD), config).run(
        profile=profile
    )
    assert profile.counters["checkpoint_hits"] == n
    assert profile.counters["rows_decoded"] == 1
    assert render_report(resumed) == render_report(first)
    assert resumed.data_health == first.data_health


def test_a_run_never_holds_the_window_sample_matrix(tmp_path):
    """Traced allocations of a whole engine run stay below half of the
    window's float32 sample matrix.  One transform thread: each thread
    holds its own tile scratch."""
    fleet = FleetSimulator(
        FleetConfig(
            num_pumps=12,
            duration_days=80,
            report_interval_days=0.25,
            pm_interval_days=None,
            max_initial_age_fraction=0.9,
            seed=11,
        )
    ).run()
    db = VibrationDatabase(str(tmp_path / "fleet.db"))
    fleet.to_database(db)
    records, _ = fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    del fleet
    engine = VibrationAnalysisEngine(
        DataRetrievalAPI(db, PERIOD), dataclasses.replace(PLAIN, max_workers=1)
    )
    tracemalloc.start()
    try:
        report = engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        db.close()
    n, k = report.measurement_ids.size, report.pipeline.psd.shape[1]
    assert n > 3000
    assert peak < n * k * 3 * 4 / 2
