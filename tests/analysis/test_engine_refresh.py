"""A long-lived engine's rolling refresh reuses the pipeline's row memo.

The paper refreshes its analysis period as ``Te_j = Te_{j-1} + delta``:
each refresh sees every measurement of the previous one plus a new tail.
One engine kept alive across refreshes must decode and transform only
that tail, extract harmonic peaks only for the valid rows the memo
lacks, still CRC-verify every stored row, and every report and
dashboard it renders must be byte-identical to a fresh engine's on the
same window.
"""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine, label_rows
from repro.analysis.reporting import render_report
from repro.chaos.retry import RetryPolicy
from repro.core.pipeline import PipelineConfig
from repro.runtime.profile import RuntimeProfile
from repro.runtime.cache import row_key
from repro.simulation.fleet import FleetConfig, FleetSimulator
from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
from repro.storage.database import BLOB_DTYPE, VibrationDatabase
from repro.storage.records import LabelRecord
from repro.viz.dashboard import write_dashboard

T0 = 60.0
DELTA = 6.0
ROUNDS = 3
CONFIG = EngineConfig(
    pipeline=PipelineConfig(ransac_min_inliers=25), rotation_hz=29.5
)


def open_refresh_db(fleet, path, label_end=np.inf):
    """File-backed DB holding the first window, and the held-back rest;
    only the labels of measurements before ``label_end`` are stored."""
    db = VibrationDatabase(str(path))
    for meta in fleet.sensors:
        db.sensors.add(meta)
    held = sorted(fleet.measurements, key=lambda m: m.timestamp_day)
    db.measurements.add_many(m for m in held if m.timestamp_day < T0)
    db.events.add_many(fleet.events)
    records, _ = fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    early = {(m.pump_id, m.measurement_id) for m in held if m.timestamp_day < label_end}
    db.labels.add_many(r for r in records if (r.pump_id, r.measurement_id) in early)
    return db, [m for m in held if m.timestamp_day >= T0]


@pytest.fixture()
def refresh_db(small_fleet, tmp_path):
    db, held = open_refresh_db(small_fleet, tmp_path / "fleet.db")
    yield db, held
    db.close()


@pytest.fixture()
def early_labels_db(small_fleet, tmp_path):
    """As ``refresh_db``, but every label names a row of the first window,
    so a refresh brings no new label and the Zone A exemplar stays put."""
    db, held = open_refresh_db(small_fleet, tmp_path / "fleet.db", label_end=T0)
    yield db, held
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
    profile = RuntimeProfile()
    previous = engine.run(profile=profile).measurement_ids.size
    assert profile.counters["rows_decoded"] == previous
    assert profile.counters["rows_verified"] == previous

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
        assert profile.counters["rows_verified"] == rows
        assert profile.counters["rows_decoded"] == rows - previous
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
    assert profile.counters["rows_decoded"] == 1
    assert outputs(report, tmp_path / "replaced.html") == fresh_outputs(
        db, api.period, tmp_path / "replaced-fresh.html"
    )


def test_refresh_extracts_peaks_only_for_new_valid_rows(refresh_db):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    db.measurements.add_many([m for m in held if m.timestamp_day < T0 + 1.0])
    api.advance(1.0)
    profile = RuntimeProfile()
    second = engine.run(profile=profile)

    def valid_rows(report) -> set[tuple[int, int]]:
        valid = report.pipeline.valid_mask
        return set(
            zip(report.pump_ids[valid].tolist(), report.measurement_ids[valid].tolist())
        )

    seen, now = valid_rows(first), valid_rows(second)
    new_rows = set(zip(second.pump_ids.tolist(), second.measurement_ids.tolist()))
    new_rows -= set(zip(first.pump_ids.tolist(), first.measurement_ids.tolist()))
    assert new_rows & now, "the refresh must bring new valid measurements"
    assert profile.counters["peak_cache_hits"] == len(now & seen)
    assert profile.counters["peak_cache_misses"] == len(now - seen)
    assert now - seen == new_rows & now
    fresh = VibrationAnalysisEngine(DataRetrievalAPI(db, api.period), CONFIG).run()
    assert second.pipeline.da.tobytes() == fresh.pipeline.da.tobytes()


def test_warm_refresh_quarantines_a_corrupted_known_row(refresh_db, tmp_path):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    # Bit rot on a row the memo holds: its stored key still matches the
    # memo, but retrieval verifies its BLOB and quarantines it.
    pump, mid = int(first.pump_ids[5]), int(first.measurement_ids[5])
    db.measurements.corrupt_blob(pump, mid, byte_index=11)
    batch = [m for m in held if m.timestamp_day < T0 + DELTA]
    db.measurements.add_many(batch)
    api.advance(DELTA)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    rows = list(zip(report.pump_ids.tolist(), report.measurement_ids.tolist()))
    assert (pump, mid) not in rows
    assert report.data_health.corrupt_blobs == {pump: 1}
    assert profile.counters["rows_verified"] == len(rows) + 1
    assert profile.counters["rows_decoded"] == len(batch)
    fresh = VibrationAnalysisEngine(DataRetrievalAPI(db, api.period), CONFIG).run()
    assert report.data_health == fresh.data_health
    assert "DATA HEALTH" in render_report(report)
    assert outputs(report, tmp_path / "warm.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )


def test_record_path_engine_decodes_only_new_rows(refresh_db, tmp_path):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0), retry=RetryPolicy())
    engine = VibrationAnalysisEngine(api, CONFIG)
    previous = engine.run().measurement_ids.size
    for index in range(1, 3):
        batch = [m for m in held if m.timestamp_day < T0 + index * DELTA]
        held = held[len(batch):]
        db.measurements.add_many(batch)
        api.advance(DELTA)
        profile = RuntimeProfile()
        report = engine.run(profile=profile)
        rows = report.measurement_ids.size
        assert profile.counters["rows_decoded"] == rows - previous == len(batch)
        assert profile.stages["transform"].items == len(batch)
        # The fresh engine reads through the streamed fast path.
        assert outputs(report, tmp_path / f"record-{index}.html") == fresh_outputs(
            db, api.period, tmp_path / f"fast-{index}.html"
        )
        previous = rows


def test_refresh_without_new_rows_decodes_nothing(refresh_db, tmp_path):
    db, _ = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    api.advance(DELTA)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    rows = first.measurement_ids.size
    assert report.measurement_ids.size == rows
    assert profile.counters["rows_verified"] == rows
    assert profile.counters["rows_decoded"] == 0
    assert profile.stages["transform"].items == 0
    assert outputs(report, tmp_path / "warm.html") == fresh_outputs(
        db, api.period, tmp_path / "fresh.html"
    )
    # Retrieval keeps the block length K with zero decoded rows (a
    # stream that wants no PSD row: the memo serves every row).
    with engine._pipeline.stream(set()) as stream:
        api.sink = stream
        window = api.measurement_matrices_with_health()
    assert window.samples.shape == (0, first.pipeline.psd.shape[1], 3)
    assert window.decoded == []
    assert len(window.row_keys) == rows


def test_null_digest_rows_render_the_same_report(refresh_db, tmp_path):
    db, _ = refresh_db
    period = AnalysisPeriod(0.0, T0)
    expected = fresh_outputs(db, period, tmp_path / "stored.html")
    db._conn.execute("ALTER TABLE measurements DROP COLUMN digest")
    db._conn.commit()
    with VibrationDatabase(db.path) as legacy:
        [(nulls,)] = legacy._conn.execute(
            "SELECT COUNT(*) FROM measurements WHERE digest IS NULL"
        )
        assert nulls == legacy.measurements.count()
        engine = VibrationAnalysisEngine(DataRetrievalAPI(legacy, period), CONFIG)
        assert outputs(engine.run(), tmp_path / "legacy.html") == expected
        # Keys hashed on read match the memo's: a rerun decodes nothing.
        profile = RuntimeProfile()
        assert outputs(engine.run(profile=profile), tmp_path / "again.html") == expected
        assert profile.counters["rows_decoded"] == 0


def test_warm_refresh_quarantines_a_non_finite_new_row(refresh_db, tmp_path):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    engine.run()
    batch = [m for m in held if m.timestamp_day < T0 + DELTA]
    poisoned = batch[len(batch) // 2]
    samples = np.array(poisoned.samples)
    samples[3, 1] = np.nan
    batch[len(batch) // 2] = dataclasses.replace(poisoned, samples=samples)
    db.measurements.add_many(batch)
    api.advance(DELTA)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert report.data_health.quarantined_nonfinite == {poisoned.pump_id: 1}
    assert profile.counters["rows_decoded"] == len(batch)
    assert profile.stages["transform"].items == len(batch) - 1
    fresh = VibrationAnalysisEngine(DataRetrievalAPI(db, api.period), CONFIG).run()
    assert report.data_health == fresh.data_health
    assert outputs(report, tmp_path / "warm.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )


class _PoisonOneRecord:
    """Duck-typed injector: once armed, NaN-poisons one retrieved record."""

    def __init__(self, target: tuple[int, int]):
        self.target = target
        self.armed = False

    def maybe_fail(self, point):
        pass

    def mutate_measurements(self, point, records):
        if not self.armed:
            return records
        return [
            dataclasses.replace(r, samples=np.full(r.samples.shape, np.nan))
            if (r.pump_id, r.measurement_id) == self.target
            else r
            for r in records
        ]


def test_injector_rewritten_known_row_is_keyed_by_its_content(refresh_db, tmp_path):
    db, held = refresh_db
    period = AnalysisPeriod(0.0, T0)
    probe = VibrationAnalysisEngine(DataRetrievalAPI(db, period), CONFIG).run()
    target = (int(probe.pump_ids[7]), int(probe.measurement_ids[7]))
    injector = _PoisonOneRecord(target)
    api = DataRetrievalAPI(db, period, injector=injector)
    engine = VibrationAnalysisEngine(api, CONFIG)
    engine.run()
    # The memo holds the clean row; the read now returns it poisoned.
    injector.armed = True
    db.measurements.add_many([m for m in held if m.timestamp_day < T0 + DELTA])
    api.advance(DELTA)
    report = engine.run()
    assert report.data_health.quarantined_nonfinite == {target[0]: 1}
    fresh = VibrationAnalysisEngine(
        DataRetrievalAPI(db, api.period, injector=injector), CONFIG
    ).run()
    assert outputs(report, tmp_path / "warm.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )


def test_resume_after_a_refresh_recalls_every_journaled_row(refresh_db, tmp_path):
    """A long-lived engine journals its first window and then only its
    refresh's new rows; a fresh engine over the same journal and the
    advanced window decodes and transforms nothing."""
    db, held = refresh_db
    config = dataclasses.replace(CONFIG, checkpoint_dir=str(tmp_path / "ckpt"))
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, config)
    profile = RuntimeProfile()
    first = engine.run(profile=profile).measurement_ids.size
    assert profile.counters["checkpoint_misses"] == first
    batch = [m for m in held if m.timestamp_day < T0 + DELTA]
    db.measurements.add_many(batch)
    api.advance(DELTA)
    profile = RuntimeProfile()
    engine.run(profile=profile)
    assert profile.counters["checkpoint_misses"] == len(batch)

    profile = RuntimeProfile()
    resumed = VibrationAnalysisEngine(DataRetrievalAPI(db, api.period), config).run(
        profile=profile
    )
    rows = resumed.measurement_ids.size
    assert profile.stages["transform"].items == 0
    assert profile.counters["rows_decoded"] == 0
    assert profile.counters["checkpoint_hits"] == rows
    assert profile.counters["checkpoint_misses"] == 0
    assert outputs(resumed, tmp_path / "resumed.html") == fresh_outputs(
        db, api.period, tmp_path / "fresh.html"
    )


# PSD rows only where a stage reads them: the Zone A exemplar reads the
# labelled Zone A rows, the diagnosis every row.
PLAIN = dataclasses.replace(CONFIG, rotation_hz=None)


def zone_a_rows(report, api) -> list[int]:
    labels = label_rows(report.pump_ids, report.measurement_ids, api.get_labels())
    return sorted(row for row, zone in labels.items() if zone == "A")


def test_plain_run_keeps_psd_of_labelled_zone_a_rows_only(refresh_db):
    db, _ = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    plain = VibrationAnalysisEngine(api, PLAIN).run().pipeline
    diagnosing = VibrationAnalysisEngine(api, CONFIG).run()
    n = diagnosing.measurement_ids.size
    rows = zone_a_rows(diagnosing, api)
    assert 0 < len(rows) < n
    assert plain.psd_rows.tolist() == rows
    assert plain.psd.shape == (len(rows), diagnosing.pipeline.psd.shape[1])
    assert diagnosing.pipeline.psd_rows.tolist() == rows
    assert plain.psd.tobytes() == diagnosing.pipeline.psd.tobytes()
    for name in ("frequencies", "values", "counts"):
        assert (
            getattr(plain.peaks, name).tobytes()
            == getattr(diagnosing.pipeline.peaks, name).tobytes()
        )
    assert plain.da.tobytes() == diagnosing.pipeline.da.tobytes()


def row_keys(db) -> dict[tuple[int, int], bytes]:
    """Row key of every stored measurement, by ``(pump_id, measurement_id)``."""
    return {
        (m.pump_id, m.measurement_id): row_key(BLOB_DTYPE, m.samples)
        for m in db.measurements.query()
    }


def diagnosis_reads(report, window=CONFIG.diagnosis_window) -> list[int]:
    """Rows whose PSD diagnosis reads: the valid rows classified Zone A
    and, when there are any, each pump's last ``window`` valid rows."""
    result = report.pipeline
    healthy = np.flatnonzero(result.valid_mask & (result.zones == "A"))
    rows = healthy.tolist()
    for pump in np.unique(report.pump_ids) if healthy.size else []:
        member = np.nonzero((report.pump_ids == pump) & result.valid_mask)[0]
        rows += member[np.argsort(report.service_days[member])][-window:].tolist()
    return rows


def kept_psd_keys(report, api, keys) -> set[bytes]:
    """Keys of the rows diagnosis read plus the labelled Zone A rows."""
    pairs = list(zip(report.pump_ids.tolist(), report.measurement_ids.tolist()))
    rows = diagnosis_reads(report) + zone_a_rows(report, api)
    return {keys[pairs[i]] for i in rows}


def test_diagnosing_engine_keeps_the_psd_rows_diagnosis_reads(refresh_db):
    """After a cold run, and after each refresh, the PSD memo holds
    exactly the labelled Zone A rows and the rows diagnosis read."""
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    n = report.measurement_ids.size
    for index in range(ROUNDS + 1):
        if index:
            held, _ = grow(db, api, held)
            profile = RuntimeProfile()
            report = engine.run(profile=profile)
        assert report.diagnoses
        kept = set(engine._pipeline.psd_keys)
        assert kept == kept_psd_keys(report, api, row_keys(db))
        assert profile.counters["psd_rows_kept"] == len(kept) < n
    assert report.pipeline.psd_rows.tolist() == zone_a_rows(report, api)


@pytest.mark.parametrize(
    "set_hook, get_hook",
    [(sys.settrace, sys.gettrace), (sys.setprofile, sys.getprofile)],
    ids=["settrace", "setprofile"],
)
def test_diagnosing_engine_runs_under_a_trace_or_profile_hook(
    refresh_db, set_hook, get_hook
):
    """A trace or profile hook (pdb, cProfile, coverage) snapshots each
    frame's locals, an extra reference to the PSD part ``retain_psd``
    trims.  A cold run and a refresh under the hook must render the
    same report and keep the same PSD rows as without it."""
    db, held = refresh_db
    db.measurements.add_many(m for m in held if m.timestamp_day < T0 + DELTA)

    def run(hook):
        api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
        engine = VibrationAnalysisEngine(api, CONFIG)
        previous = get_hook()
        set_hook(hook)
        try:
            texts = [render_report(engine.run())]
            api.advance(DELTA)
            texts.append(render_report(engine.run()))
        finally:
            set_hook(previous)
        assert "DIAGNOSIS" in texts[-1]
        return texts, list(engine._pipeline.psd_keys)

    assert run(lambda *args: None) == run(None)


def test_zone_a_label_added_to_a_memoised_row_matches_a_fresh_engine(
    refresh_db, tmp_path
):
    """The memo of a plain run lacks the PSD of an unlabelled row; once
    that row is labelled Zone A, the next run decodes and transforms it
    again in its one read of the window, and renders a fresh engine's
    bytes."""
    db, _ = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, PLAIN)
    first = engine.run()
    labelled = set(zone_a_rows(first, api))
    row = next(
        i for i in np.flatnonzero(first.pipeline.valid_mask) if i not in labelled
    )
    labels = {(r.pump_id, r.measurement_id) for r in api.get_labels()}
    key = (int(first.pump_ids[row]), int(first.measurement_ids[row]))
    assert key not in labels
    db.labels.add(LabelRecord(pump_id=key[0], measurement_id=key[1], zone="A"))

    profile = RuntimeProfile()
    second = engine.run(profile=profile)
    n = second.measurement_ids.size
    assert row in second.pipeline.psd_rows
    assert profile.stages["transform"].items == 1
    assert profile.counters["transform_cache_hits"] == n - 1
    assert profile.counters["rows_decoded"] == 1
    assert profile.counters["rows_verified"] == n
    fresh = VibrationAnalysisEngine(DataRetrievalAPI(db, api.period), PLAIN).run()
    assert outputs(second, tmp_path / "warm.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )
    assert second.pipeline.psd.tobytes() == fresh.pipeline.psd.tobytes()


def label_an_unlabelled_row_zone_a(report, api, db) -> tuple[int, int]:
    labelled = {(r.pump_id, r.measurement_id) for r in api.get_labels()}
    pair = next(
        pair
        for pair in zip(report.pump_ids.tolist(), report.measurement_ids.tolist())
        if pair not in labelled
    )
    db.labels.add(LabelRecord(pump_id=pair[0], measurement_id=pair[1], zone="A"))
    return pair


def test_zone_a_label_added_before_a_plain_resume_decodes_that_row_once(
    refresh_db, tmp_path
):
    """An engine whose memo comes from a plain journal has seen no window
    of its own; a row labelled Zone A since the journal was written is
    still decoded in the one read."""
    db, _ = refresh_db
    period = AnalysisPeriod(0.0, T0)
    config = dataclasses.replace(PLAIN, checkpoint_dir=str(tmp_path / "ckpt"))
    api = DataRetrievalAPI(db, period)
    first = VibrationAnalysisEngine(api, config).run()
    label_an_unlabelled_row_zone_a(first, api, db)
    profile = RuntimeProfile()
    resumed = VibrationAnalysisEngine(DataRetrievalAPI(db, period), config).run(
        profile=profile
    )
    n = resumed.measurement_ids.size
    assert profile.counters["rows_verified"] == n
    assert profile.counters["rows_decoded"] == 1
    assert profile.counters["checkpoint_hits"] == n - 1
    fresh = VibrationAnalysisEngine(DataRetrievalAPI(db, period), PLAIN).run()
    assert outputs(resumed, tmp_path / "resumed.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )


class _DuplicateOneRecord(_PoisonOneRecord):
    """Duck-typed injector: once armed, returns one record twice."""

    def mutate_measurements(self, point, records):
        if not self.armed:
            return records
        out = []
        for r in records:
            out.append(r)
            if (r.pump_id, r.measurement_id) == self.target:
                out.append(r)
        return out


def test_duplicated_read_of_a_newly_zone_a_row_matches_a_fresh_engine(
    refresh_db, tmp_path
):
    """A read that returns a row twice decodes both copies when the row
    was labelled Zone A after the memo took it without its PSD; the label
    names the last copy, so the memo serves the first."""
    db, _ = refresh_db
    period = AnalysisPeriod(0.0, T0)
    injector = _DuplicateOneRecord(None)
    api = DataRetrievalAPI(db, period, injector=injector)
    engine = VibrationAnalysisEngine(api, PLAIN)
    first = engine.run()
    injector.target = label_an_unlabelled_row_zone_a(first, api, db)
    injector.armed = True
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert profile.counters["rows_decoded"] == 2
    assert profile.stages["transform"].items == 1
    fresh = VibrationAnalysisEngine(
        DataRetrievalAPI(db, period, injector=injector), PLAIN
    ).run()
    assert outputs(report, tmp_path / "warm.html") == outputs(
        fresh, tmp_path / "fresh.html"
    )


def test_diagnosing_resume_over_a_plain_journal_rereads_the_psd_rows_diagnosis_reads(
    refresh_db, tmp_path
):
    """A plain journal holds the PSD of the labelled Zone A rows only:
    a diagnosing resume serves every row from it and reads again just
    the other rows diagnosis reads."""
    db, _ = refresh_db
    period = AnalysisPeriod(0.0, T0)
    api = DataRetrievalAPI(db, period)
    ckpt = str(tmp_path / "ckpt")
    plain = VibrationAnalysisEngine(
        DataRetrievalAPI(db, period), dataclasses.replace(PLAIN, checkpoint_dir=ckpt)
    ).run()
    profile = RuntimeProfile()
    resumed = VibrationAnalysisEngine(
        DataRetrievalAPI(db, period), dataclasses.replace(CONFIG, checkpoint_dir=ckpt)
    ).run(profile=profile)
    n = resumed.measurement_ids.size
    assert zone_a_rows(resumed, api) == plain.pipeline.psd_rows.tolist()
    reads = set(diagnosis_reads(resumed)) - set(zone_a_rows(resumed, api))
    assert profile.counters["checkpoint_hits"] == n
    assert profile.counters["rows_decoded"] == 0
    assert profile.stages["transform"].items == 0
    assert profile.counters["psd_rows_reread"] == len(reads) > 0
    assert outputs(resumed, tmp_path / "resumed.html") == fresh_outputs(
        db, period, tmp_path / "fresh.html"
    )


# The row memo's edge cases.  A window that extends the memo's rows
# grows the memo in place; every other window gathers its rows.  Either
# way, and for the raw D_a the memo keeps per row under the exemplar it
# was scored against, each report must equal a fresh engine's.


def grow(db, api, held) -> tuple[list, list]:
    """Store the held rows before the next window end and advance to it;
    return the rows still held and the rows stored."""
    end = api.period.end_day + DELTA
    batch = [m for m in held if m.timestamp_day < end]
    db.measurements.add_many(batch)
    api.advance(DELTA)
    return held[len(batch):], batch


def assert_matches_fresh(report, db, api, path, config=CONFIG, injector=None):
    fresh = VibrationAnalysisEngine(
        DataRetrievalAPI(db, api.period, injector=injector), config
    ).run()
    assert report.data_health == fresh.data_health
    assert report.pipeline.da.tobytes() == fresh.pipeline.da.tobytes()
    assert outputs(report, path.with_suffix(".warm.html")) == outputs(
        fresh, path.with_suffix(".fresh.html")
    )


def valid_pairs(report) -> list[tuple[int, int]]:
    valid = report.pipeline.valid_mask
    return list(
        zip(report.pump_ids[valid].tolist(), report.measurement_ids[valid].tolist())
    )


def test_refresh_scores_da_only_for_new_valid_rows(early_labels_db, tmp_path):
    db, held = early_labels_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    profile = RuntimeProfile()
    seen = set(valid_pairs(engine.run(profile=profile)))
    assert profile.counters["da_cache_hits"] == 0
    assert profile.counters["da_cache_misses"] == len(seen)
    for index in range(2):
        held, batch = grow(db, api, held)
        profile = RuntimeProfile()
        report = engine.run(profile=profile)
        now = set(valid_pairs(report))
        new = {(m.pump_id, m.measurement_id) for m in batch} & now
        assert new, "the refresh must bring new valid measurements"
        assert profile.counters["da_cache_misses"] == len(new) == len(now - seen)
        assert profile.counters["da_cache_hits"] == len(now & seen)
        assert_matches_fresh(report, db, api, tmp_path / f"refresh-{index}")
        seen = now


def test_zone_a_label_that_changes_the_exemplar_rescores_every_row(
    refresh_db, tmp_path
):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    labelled = {(r.pump_id, r.measurement_id) for r in api.get_labels()}
    pump, mid = next(p for p in valid_pairs(first) if p not in labelled)
    db.labels.add(LabelRecord(pump_id=pump, measurement_id=mid, zone="A"))
    held, _ = grow(db, api, held)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert profile.counters["da_cache_hits"] == 0
    assert profile.counters["da_cache_misses"] == report.pipeline.valid_mask.sum()
    assert_matches_fresh(report, db, api, tmp_path / "labelled")
    grow(db, api, held)
    assert_matches_fresh(engine.run(), db, api, tmp_path / "after")


def test_late_row_inserted_mid_window_matches_a_fresh_engine(refresh_db, tmp_path):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    previous = engine.run().measurement_ids.size
    stored = db.measurements.query(0.0, T0)
    middle = stored[len(stored) // 2]
    late = dataclasses.replace(
        middle,
        measurement_id=middle.measurement_id + 10_000,
        timestamp_day=middle.timestamp_day + 1e-3,
        service_day=middle.service_day + 1e-3,
        samples=np.asarray(middle.samples) * 1.01,
    )
    db.measurements.add_many([late])
    held, batch = grow(db, api, held)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert report.measurement_ids.size == previous + len(batch) + 1
    assert profile.counters["rows_decoded"] == len(batch) + 1
    assert profile.counters["transform_cache_hits"] == previous
    assert_matches_fresh(report, db, api, tmp_path / "late")
    grow(db, api, held)
    assert_matches_fresh(engine.run(), db, api, tmp_path / "after")


def test_duplicated_read_on_a_diagnosing_refresh_matches_a_fresh_engine(
    refresh_db, tmp_path
):
    db, held = refresh_db
    injector = _DuplicateOneRecord(None)
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0), injector=injector)
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    injector.target = (int(first.pump_ids[9]), int(first.measurement_ids[9]))
    injector.armed = True
    held, batch = grow(db, api, held)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert report.measurement_ids.size == first.measurement_ids.size + len(batch) + 1
    assert profile.counters["rows_decoded"] == len(batch)
    assert_matches_fresh(report, db, api, tmp_path / "duplicate", injector=injector)
    grow(db, api, held)
    assert_matches_fresh(engine.run(), db, api, tmp_path / "after", injector=injector)


def test_training_row_turned_invalid_rescores_every_row(refresh_db, tmp_path):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    zone_a = {
        (r.pump_id, r.measurement_id) for r in api.get_labels() if r.zone == "A"
    }
    pump, mid = next(p for p in valid_pairs(first) if p in zone_a)
    # A gross offset under the same id: the row's content, and so its
    # key, changes, and outlier detection now flags it.
    [old] = [m for m in db.measurements.query(0.0, T0, [pump]) if m.measurement_id == mid]
    db.measurements.add_many(
        [dataclasses.replace(old, samples=np.asarray(old.samples) + 5.0)]
    )
    held, _ = grow(db, api, held)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert (pump, mid) not in valid_pairs(report)
    assert profile.counters["da_cache_hits"] == 0
    assert profile.counters["da_cache_misses"] == report.pipeline.valid_mask.sum()
    assert_matches_fresh(report, db, api, tmp_path / "flipped")
    grow(db, api, held)
    assert_matches_fresh(engine.run(), db, api, tmp_path / "after")


def test_refresh_after_a_resume_matches_a_fresh_engine(refresh_db, tmp_path):
    db, held = refresh_db
    config = dataclasses.replace(CONFIG, checkpoint_dir=str(tmp_path / "ckpt"))
    period = AnalysisPeriod(0.0, T0)
    VibrationAnalysisEngine(DataRetrievalAPI(db, period), config).run()
    api = DataRetrievalAPI(db, period)
    resumed = VibrationAnalysisEngine(api, config)
    profile = RuntimeProfile()
    report = resumed.run(profile=profile)
    assert profile.counters["checkpoint_hits"] == report.measurement_ids.size
    assert profile.counters["da_cache_hits"] == 0
    assert_matches_fresh(report, db, api, tmp_path / "resumed")
    for index in range(2):
        held, batch = grow(db, api, held)
        profile = RuntimeProfile()
        report = resumed.run(profile=profile)
        assert profile.counters["checkpoint_misses"] == len(batch)
        assert_matches_fresh(report, db, api, tmp_path / f"refresh-{index}")


def test_plain_engine_refresh_matches_a_fresh_engine(early_labels_db, tmp_path):
    db, held = early_labels_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, PLAIN)
    seen = set(valid_pairs(engine.run()))
    for index in range(2):
        held, batch = grow(db, api, held)
        profile = RuntimeProfile()
        report = engine.run(profile=profile)
        now = set(valid_pairs(report))
        assert profile.counters["transform_cache_misses"] == len(batch)
        assert profile.counters["da_cache_misses"] == len(now - seen)
        assert_matches_fresh(report, db, api, tmp_path / f"plain-{index}", PLAIN)
        seen = now


def open_large_refresh_db(tmp_path):
    """A 12-pump fleet stored up to its day 56 (2,688 rows), every label
    stored, and the held-back rest; returns ``(db, held, 56.0)``."""
    fleet = FleetSimulator(
        FleetConfig(
            num_pumps=12,
            duration_days=60,
            report_interval_days=0.25,
            pm_interval_days=None,
            max_initial_age_fraction=0.9,
            seed=11,
        )
    ).run()
    start = 56.0
    db = VibrationDatabase(str(tmp_path / "fleet.db"))
    for meta in fleet.sensors:
        db.sensors.add(meta)
    held = sorted(fleet.measurements, key=lambda m: m.timestamp_day)
    db.measurements.add_many(m for m in held if m.timestamp_day < start)
    db.events.add_many(fleet.events)
    records, _ = fleet.expert_labels({"A": 30, "BC": 30, "D": 20})
    db.labels.add_many(records)
    return db, [m for m in held if m.timestamp_day >= start], start


def test_second_refresh_allocates_less_than_a_window_psd_copy(tmp_path):
    """A refresh that extends the window writes its new rows into the
    memo's buffers, so it allocates less than one copy of the window's
    PSD (``n·K·8`` bytes); copying the memo would allocate at least
    that."""
    db, held, start = open_large_refresh_db(tmp_path)
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, start))
    engine = VibrationAnalysisEngine(api, dataclasses.replace(CONFIG, max_workers=1))
    try:
        engine.run()
        for end in (start + 1.0, start + 2.0):
            db.measurements.add_many(
                [m for m in held if end - 1.0 <= m.timestamp_day < end]
            )
            api.advance(1.0)
            tracemalloc.start()
            try:
                report = engine.run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    finally:
        db.close()
    n, k = report.measurement_ids.size, report.pipeline.psd.shape[1]
    assert n > 2000
    assert peak < n * k * 8


# A diagnosing engine's PSD memo keeps the rows diagnosis read and the
# labelled Zone A rows.  A row diagnosis reads later without its PSD in
# the memo comes from a targeted read, transformed again; each report
# must equal a fresh engine's.


def reread_keys(report, api, db, before: set[bytes], new: set[bytes]) -> set[bytes]:
    """Keys of the rows diagnosis read whose PSD the memo lacked (``before``)
    and that the window read did not transform (``new``)."""
    keys = row_keys(db)
    pairs = list(zip(report.pump_ids.tolist(), report.measurement_ids.tolist()))
    return {keys[pairs[i]] for i in diagnosis_reads(report)} - before - new


def test_row_classified_zone_a_after_its_psd_was_dropped_is_read_again(
    refresh_db, tmp_path
):
    db, held = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    engine.run()
    newly_healthy = 0
    for index in range(ROUNDS):
        before = set(engine._pipeline.psd_keys)
        seen = set(engine._pipeline.memo_keys)
        held, batch = grow(db, api, held)
        profile = RuntimeProfile()
        report = engine.run(profile=profile)
        new = set(engine._pipeline.memo_keys) - seen
        reread = reread_keys(report, api, db, before, new)
        assert profile.counters["psd_rows_reread"] == len(reread)
        keys = row_keys(db)
        result = report.pipeline
        healthy = {
            keys[pair]
            for pair, ok in zip(
                zip(report.pump_ids.tolist(), report.measurement_ids.tolist()),
                (result.valid_mask & (result.zones == "A")).tolist(),
            )
            if ok
        }
        newly_healthy += len(reread & healthy)
        assert_matches_fresh(report, db, api, tmp_path / f"zone-a-{index}")
    assert newly_healthy > 0


def corrupt_newest_rows(report, db, engine, rows=3) -> int:
    """Corrupt the newest ``rows`` BLOBs of a pump whose valid rows just
    before its last ``diagnosis_window`` have no PSD in the memo: the
    next read quarantines them, so that pump's recent rows reach back
    past rows whose PSD was dropped.  Returns the pump."""
    keys = row_keys(db)
    kept = set(engine._pipeline.psd_keys)
    valid = report.pipeline.valid_mask
    window = CONFIG.diagnosis_window
    for pump in np.unique(report.pump_ids).tolist():
        member = np.nonzero((report.pump_ids == pump) & valid)[0]
        member = member[np.argsort(report.service_days[member])]
        pairs = [
            (pump, int(report.measurement_ids[i])) for i in member[-window - rows :]
        ]
        if len(pairs) == window + rows and not {keys[p] for p in pairs[:rows]} & kept:
            for pair in pairs[-rows:]:
                db.measurements.corrupt_blob(*pair)
            return pump
    raise AssertionError("no pump has dropped rows before its recent ones")


def test_recent_rows_reaching_back_past_dropped_rows_are_read_again(
    refresh_db, tmp_path
):
    db, _ = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    first = engine.run()
    before = set(engine._pipeline.psd_keys)
    pump = corrupt_newest_rows(first, db, engine)
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert report.data_health.corrupt_blobs == {pump: 3}
    assert profile.counters["rows_decoded"] == 0
    reread = reread_keys(report, api, db, before, set())
    assert profile.counters["psd_rows_reread"] == len(reread) >= 3
    assert set(engine._pipeline.psd_keys) == kept_psd_keys(report, api, row_keys(db))
    assert_matches_fresh(report, db, api, tmp_path / "recent")


def test_row_stored_anew_before_the_targeted_read_fails_naming_it(refresh_db):
    db, _ = refresh_db
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0))
    engine = VibrationAnalysisEngine(api, CONFIG)
    corrupt_newest_rows(engine.run(), db, engine)
    read_rows = api.read_rows
    replaced = []

    def concurrent_writer(pairs, keys):
        # A writer stores the first row again, after the window read.
        pump, mid = pairs[0]
        old = db.measurements.query(0.0, T0, [pump])
        old = next(m for m in old if m.measurement_id == mid)
        db.measurements.add_many([dataclasses.replace(old, samples=old.samples * 2)])
        replaced.append((pump, mid))
        return read_rows(pairs, keys)

    api.read_rows = concurrent_writer
    with pytest.raises(RuntimeError, match="was stored anew") as error:
        engine.run()
    pump, mid = replaced[0]
    assert f"(pump {pump}, id {mid})" in str(error.value)


class _CountingInjector:
    """Duck-typed injector that faults nothing and counts its draws."""

    def __init__(self):
        self.draws = 0

    def maybe_fail(self, point):
        self.draws += 1

    def mutate_measurements(self, point, records):
        self.draws += 1
        return records


def test_targeted_read_draws_nothing_from_the_injector(refresh_db, tmp_path):
    """Each run draws from the injector for its one window read only, so
    a chaos plan's draws, and bytes, do not depend on targeted reads."""
    db, _ = refresh_db
    injector = _CountingInjector()
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, T0), injector=injector)
    engine = VibrationAnalysisEngine(api, CONFIG)
    corrupt_newest_rows(engine.run(), db, engine)
    assert injector.draws == 2
    profile = RuntimeProfile()
    report = engine.run(profile=profile)
    assert profile.counters["psd_rows_reread"] >= 3
    assert injector.draws == 4
    assert_matches_fresh(
        report, db, api, tmp_path / "injector", injector=_CountingInjector()
    )


def test_diagnosing_refresh_sums_psd_in_place_and_keeps_only_read_rows(
    tmp_path, monkeypatch
):
    """Diagnosis allocates less than half of one copy of the healthy
    rows' PSD (``healthy·K·8`` bytes), and after the refresh the PSD
    memo's buffers hold the rows diagnosis read plus the labelled Zone A
    rows and nothing more."""
    db, held, start = open_large_refresh_db(tmp_path)
    api = DataRetrievalAPI(db, AnalysisPeriod(0.0, start))
    engine = VibrationAnalysisEngine(api, dataclasses.replace(CONFIG, max_workers=1))
    diagnose = engine._diagnose
    peaks = []

    def traced_diagnose(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = diagnose(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(engine, "_diagnose", traced_diagnose)
    try:
        engine.run()
        db.measurements.add_many([m for m in held if m.timestamp_day < start + 1.0])
        api.advance(1.0)
        profile = RuntimeProfile()
        tracemalloc.start()
        try:
            report = engine.run(profile=profile)
        finally:
            tracemalloc.stop()
        kept = kept_psd_keys(report, api, row_keys(db))
    finally:
        db.close()
    result = report.pipeline
    healthy = int(np.count_nonzero(result.valid_mask & (result.zones == "A")))
    k = result.psd.shape[1]
    assert healthy > 500
    assert peaks[-1] < healthy * k * 8 / 2
    assert set(engine._pipeline.psd_keys) == kept
    assert profile.counters["psd_rows_kept"] == len(kept)
    memo_bytes = sum(psd.nbytes for psd in engine._pipeline._psd_parts)
    assert memo_bytes == len(kept) * k * 8
