"""Tests for the SQLite stores (database.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.cache import row_digests
from repro.storage.database import (
    DatabaseCorruptionError,
    DenseRows,
    VibrationDatabase,
)
from repro.storage.records import (
    BM,
    PM,
    LabelRecord,
    MaintenanceEvent,
    Measurement,
    SensorMeta,
    TemperatureRecord,
)


@pytest.fixture()
def db():
    with VibrationDatabase() as database:
        yield database


def make_measurement(pump=0, mid=0, day=0.0, k=16, seed=0):
    gen = np.random.default_rng(seed)
    return Measurement(
        pump_id=pump,
        measurement_id=mid,
        timestamp_day=day,
        service_day=day,
        samples=gen.normal(size=(k, 3)),
    )


class TestMeasurementStore:
    def test_roundtrip_preserves_samples(self, db):
        original = make_measurement(seed=1)
        db.measurements.add(original)
        [restored] = db.measurements.query()
        # float32 storage: exact to float32 precision.
        assert np.allclose(restored.samples, original.samples, atol=1e-6)
        assert restored.pump_id == original.pump_id
        assert restored.measurement_id == original.measurement_id

    def test_time_range_query_is_half_open(self, db):
        for day in (0.0, 1.0, 2.0, 3.0):
            db.measurements.add(make_measurement(mid=int(day), day=day))
        results = db.measurements.query(start_day=1.0, end_day=3.0)
        assert [m.timestamp_day for m in results] == [1.0, 2.0]

    def test_pump_filter(self, db):
        db.measurements.add(make_measurement(pump=1, mid=0))
        db.measurements.add(make_measurement(pump=2, mid=0))
        results = db.measurements.query(pump_ids=[2])
        assert len(results) == 1
        assert results[0].pump_id == 2

    def test_ordering_by_time(self, db):
        db.measurements.add(make_measurement(mid=1, day=5.0))
        db.measurements.add(make_measurement(mid=0, day=1.0))
        results = db.measurements.query()
        assert [m.timestamp_day for m in results] == [1.0, 5.0]

    def test_upsert_semantics(self, db):
        db.measurements.add(make_measurement(mid=0, seed=1))
        db.measurements.add(make_measurement(mid=0, seed=2))
        assert db.measurements.count() == 1

    def test_bulk_insert(self, db):
        db.measurements.add_many(make_measurement(mid=i) for i in range(10))
        assert db.measurements.count() == 10


class TestZeroCopyDecode:
    def test_decode_is_float32_little_endian(self, db):
        db.measurements.add(make_measurement(seed=3))
        [restored] = db.measurements.query()
        assert restored.samples.dtype == np.dtype("<f4")

    def test_decode_is_readonly_view_over_blob(self, db):
        """``_decode`` wraps the BLOB bytes directly — a read-only view,
        not a per-row copy."""
        db.measurements.add(make_measurement(seed=4))
        [restored] = db.measurements.query()
        arr = restored.samples
        assert not arr.flags.writeable
        assert not arr.flags.owndata
        # The view chain bottoms out at the immutable BLOB buffer.
        base = arr
        while base.base is not None and isinstance(base.base, np.ndarray):
            base = base.base
        assert isinstance(base.base, (bytes, memoryview))
        with pytest.raises((ValueError, RuntimeError)):
            arr[0, 0] = 1.0

    def test_decode_roundtrips_exact_float32(self, db):
        original = make_measurement(seed=5)
        db.measurements.add(original)
        [restored] = db.measurements.query()
        assert np.array_equal(
            restored.samples, original.samples.astype(np.float32)
        )


class TestQueryArrays:
    def test_matches_record_query_bit_exact(self, db):
        db.measurements.add_many(
            make_measurement(pump=i % 3, mid=i, day=float(i), seed=i)
            for i in range(12)
        )
        records = db.measurements.query()
        pumps, mids, service, samples, dropped, corrupt, *_ = (
            db.measurements.query_arrays()
        )
        assert dropped == {}
        assert corrupt == {}
        assert list(pumps) == [m.pump_id for m in records]
        assert list(mids) == [m.measurement_id for m in records]
        assert list(service) == [m.service_day for m in records]
        stacked = np.stack([m.samples for m in records])
        assert stacked.dtype == np.float32
        assert samples.dtype == np.float32
        assert np.array_equal(samples, stacked)

    def test_filters_match_record_query(self, db):
        db.measurements.add_many(
            make_measurement(pump=i % 2, mid=i, day=float(i)) for i in range(8)
        )
        records = db.measurements.query(start_day=2.0, end_day=6.0, pump_ids=[1])
        pumps, mids, _, samples, *_ = db.measurements.query_arrays(
            start_day=2.0, end_day=6.0, pump_ids=[1]
        )
        assert list(mids) == [m.measurement_id for m in records]
        assert (pumps == 1).all()
        assert samples.shape[0] == len(records)

    def test_majority_length_filter_reports_dropped(self, db):
        db.measurements.add_many(
            make_measurement(pump=0, mid=i, day=float(i), k=16) for i in range(4)
        )
        db.measurements.add(make_measurement(pump=1, mid=99, day=9.0, k=8))
        pumps, mids, _, samples, dropped, *_ = db.measurements.query_arrays()
        assert samples.shape == (4, 16, 3)
        assert 99 not in mids
        assert dropped == {1: 1}

    def test_empty_result(self, db):
        pumps, mids, service, samples, dropped, corrupt, *_ = (
            db.measurements.query_arrays()
        )
        assert pumps.size == 0 and samples.shape == (0, 0, 3) and dropped == {}
        assert corrupt == {}


class _TrackedCursor:
    """A query cursor that reports when it has been read to the end."""

    def __init__(self, cursor, open_cursors):
        self._cursor = cursor
        self._open = open_cursors
        self._open.append(self)

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._cursor)
        except StopIteration:
            self._close()
            raise

    def fetchall(self):
        rows = self._cursor.fetchall()
        self._close()
        return rows

    def _close(self):
        if self in self._open:
            self._open.remove(self)


class _CommitGuard:
    """Connection proxy that fails a commit made while a query cursor is
    still open: on Python 3.10 ``commit()`` resets every open statement,
    so the cursor would restart or lose its remaining rows."""

    def __init__(self, conn):
        self._conn = conn
        self.open_cursors = []

    def execute(self, sql, params=()):
        cursor = self._conn.execute(sql, params)
        if cursor.description is None:
            return cursor
        return _TrackedCursor(cursor, self.open_cursors)

    def executemany(self, sql, rows):
        return self._conn.executemany(sql, rows)

    def commit(self):
        assert not self.open_cursors, "commit while a query cursor is open"
        self._conn.commit()

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        assert not self.open_cursors, "commit while a query cursor is open"
        return self._conn.__exit__(*exc_info)


class TestStreamedQueryArrays:
    """Edge cases of the cursor-streamed ``query_arrays``: each must equal
    the record path (``measurement_matrices_with_health`` with a retry
    policy set, which stacks :meth:`MeasurementStore.query` records)."""

    @staticmethod
    def assert_matches_record_path(db, start_day=-np.inf, end_day=np.inf):
        from repro.chaos.retry import RetryPolicy
        from repro.storage.api import AnalysisPeriod, DataRetrievalAPI

        fast = db.measurements.query_arrays(start_day, end_day)
        api = DataRetrievalAPI(
            db, AnalysisPeriod(start_day, end_day), retry=RetryPolicy()
        )
        records = api.measurement_matrices_with_health()
        for got, expected in zip(fast[:4], records[:4]):
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
        assert fast[4:] == records[4:]
        return fast

    def test_corrupt_row_mid_window_keeps_every_later_row(self, db):
        db.measurements.add_many(
            make_measurement(pump=i % 3, mid=i, day=float(i), seed=i)
            for i in range(12)
        )
        db.measurements.corrupt_blob(0, 3, byte_index=5)
        guard = _CommitGuard(db.measurements._conn)
        db.measurements._conn = guard
        try:
            pumps, mids, _, samples, dropped, corrupt, *_ = (
                db.measurements.query_arrays()
            )
        finally:
            db.measurements._conn = guard._conn
        assert not guard.open_cursors
        assert list(mids) == [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]
        assert samples.dtype == np.float32 and samples.shape == (11, 16, 3)
        assert corrupt == {0: 1} and dropped == {}
        assert db.dead_letters.count() == 1
        self.assert_matches_record_path(db)
        assert db.dead_letters.count() == 1

    def test_corruption_flips_the_majority_length(self, db):
        # Five rows of K=16 against four of K=8: the GROUP BY majority is
        # 16, but two corrupt 16-sample rows leave 8 the verified majority.
        db.measurements.add_many(
            make_measurement(pump=i % 2, mid=i, day=float(i), k=8 if i % 2 else 16,
                             seed=i)
            for i in range(9)
        )
        db.measurements.corrupt_blob(0, 0)
        db.measurements.corrupt_blob(0, 4)
        pumps, mids, _, samples, dropped, corrupt, *_ = self.assert_matches_record_path(
            db
        )
        assert samples.shape == (4, 8, 3)
        assert list(mids) == [1, 3, 5, 7]
        assert dropped == {0: 3} and corrupt == {0: 2}

    def test_two_length_tie_keeps_the_smaller_length(self, db):
        db.measurements.add_many(
            make_measurement(pump=i % 2, mid=i, day=float(i), k=16 if i % 2 else 8,
                             seed=i)
            for i in range(6)
        )
        pumps, mids, _, samples, dropped, corrupt, *_ = self.assert_matches_record_path(
            db
        )
        assert samples.shape == (3, 8, 3)
        assert dropped == {1: 3} and corrupt == {}

    def test_empty_window(self, db):
        db.measurements.add_many(
            make_measurement(mid=i, day=float(i), seed=i) for i in range(3)
        )
        pumps, mids, service, samples, dropped, corrupt, *_ = (
            self.assert_matches_record_path(db, 10.0, 20.0)
        )
        assert pumps.size == mids.size == service.size == 0
        assert samples.shape == (0, 0, 3) and samples.dtype == np.float32
        assert dropped == {} and corrupt == {}

    def test_rows_written_between_count_and_read_stay_out(self, tmp_path):
        path = str(tmp_path / "vibes.db")
        with VibrationDatabase(path) as db, VibrationDatabase(path) as writer:
            db.measurements.add_many(
                make_measurement(mid=i, day=float(i), seed=i) for i in range(4)
            )
            conn = db.measurements._conn

            class _WriteAfterCount:
                """Lets a second connection write right after the count."""

                def execute(self, sql, params=()):
                    cursor = conn.execute(sql, params)
                    if "GROUP BY" in sql:
                        writer.measurements.add_many(
                            make_measurement(mid=10 + i, day=0.5, seed=i)
                            for i in range(3)
                        )
                    return cursor

                def __enter__(self):
                    return conn.__enter__()

                def __exit__(self, *exc_info):
                    return conn.__exit__(*exc_info)

            db.measurements._conn = _WriteAfterCount()
            try:
                _, mids, _, samples, *_ = db.measurements.query_arrays()
            finally:
                db.measurements._conn = conn
            assert list(mids) == [0, 1, 2, 3]
            assert samples.shape == (4, 16, 3)
            assert db.measurements.query_arrays()[3].shape == (7, 16, 3)


class TestConnectionPragmas:
    def test_file_backed_uses_wal_without_a_file_map(self, tmp_path):
        with VibrationDatabase(str(tmp_path / "vibes.db")) as database:
            conn = database._conn
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
            assert mode.lower() == "wal"
            (sync,) = conn.execute("PRAGMA synchronous").fetchone()
            assert sync == 1  # NORMAL
            (mmap,) = conn.execute("PRAGMA mmap_size").fetchone()
            assert mmap == 0

    def test_in_memory_skips_wal(self):
        with VibrationDatabase() as database:
            assert database.in_memory
            (mode,) = database._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode.lower() != "wal"


def _measurement_indexes(db) -> list[str]:
    return [
        name
        for (name,) in db._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
            " AND tbl_name = 'measurements' AND sql IS NOT NULL"
        )
    ]


class TestWindowIndex:
    def test_window_reads_walk_the_window_index_without_a_sort(self, db):
        db.measurements.add_many(
            make_measurement(pump=p, mid=m, day=m / 4, seed=m)
            for p in range(3)
            for m in range(8)
        )
        statements = []
        db._conn.set_trace_callback(statements.append)
        db.measurements.query_arrays(0.0, 1.5)
        db.measurements.query(0.0, 1.5)
        db._conn.set_trace_callback(None)
        window = [sql for sql in statements if "ORDER BY timestamp_day" in sql]
        assert len(window) == 2
        for sql in window:
            plan = " ".join(
                row[-1] for row in db._conn.execute("EXPLAIN QUERY PLAN " + sql)
            )
            assert "idx_measurements_window" in plan
            assert "TEMP B-TREE" not in plan

    def test_legacy_time_index_is_replaced_on_open(self, tmp_path):
        fresh, legacy = str(tmp_path / "fresh.db"), str(tmp_path / "legacy.db")
        for path in (fresh, legacy):
            with VibrationDatabase(path) as db:
                # Equal timestamps across pumps: only the index's later
                # columns order them.
                db.measurements.add_many(
                    make_measurement(pump=p, mid=m, day=float(m // 2), seed=10 * p + m)
                    for p in (2, 0, 1)
                    for m in range(6)
                )
        with VibrationDatabase(legacy) as db:
            db._conn.executescript(
                "DROP INDEX idx_measurements_window;"
                " CREATE INDEX idx_measurements_time ON measurements (timestamp_day);"
            )
            assert _measurement_indexes(db) == ["idx_measurements_time"]
        with VibrationDatabase(fresh) as db:
            expected = db.measurements.query_arrays()
        with VibrationDatabase(legacy) as db:
            assert _measurement_indexes(db) == ["idx_measurements_window"]
            got = db.measurements.query_arrays()
        assert got.row_keys == expected.row_keys
        assert np.array_equal(got.pump_ids, expected.pump_ids)
        assert np.array_equal(got.measurement_ids, expected.measurement_ids)
        assert got.samples.tobytes() == expected.samples.tobytes()


class TestLabelStore:
    def test_valid_filter(self, db):
        db.labels.add(LabelRecord(0, 0, "A", valid=True))
        db.labels.add(LabelRecord(0, 1, "D", valid=False))
        assert len(db.labels.query(only_valid=True)) == 1
        assert len(db.labels.query(only_valid=False)) == 2
        assert db.labels.count() == 2
        assert db.labels.count(only_valid=True) == 1

    def test_pump_filter(self, db):
        db.labels.add(LabelRecord(1, 0, "A"))
        db.labels.add(LabelRecord(2, 0, "BC"))
        results = db.labels.query(pump_ids=[1])
        assert len(results) == 1
        assert results[0].zone == "A"

    def test_two_sources_coexist_per_measurement(self, db):
        db.labels.add(LabelRecord(0, 0, "A", source="data-driven"))
        db.labels.add(LabelRecord(0, 0, "BC", source="physical-checking"))
        assert db.labels.count() == 2


class TestEventStore:
    def test_roundtrip_with_nan_rul(self, db):
        db.events.add(MaintenanceEvent(0, 10.0, PM, 180.0))
        [event] = db.events.query()
        assert np.isnan(event.true_rul_days)

    def test_time_and_pump_filters(self, db):
        db.events.add(MaintenanceEvent(1, 10.0, PM, 180.0, 50.0))
        db.events.add(MaintenanceEvent(2, 20.0, BM, 200.0, -30.0))
        assert len(db.events.query(start_day=15.0)) == 1
        assert len(db.events.query(pump_ids=[1])) == 1
        assert db.events.query(pump_ids=[2])[0].kind == BM


class TestTemperatureStore:
    def test_roundtrip_and_filters(self, db):
        db.temperature.add_many(
            [
                TemperatureRecord(0, 1.0, 64.0),
                TemperatureRecord(0, 2.0, 66.0),
                TemperatureRecord(1, 1.5, 70.0),
            ]
        )
        assert len(db.temperature.query()) == 3
        assert len(db.temperature.query(start_day=1.2, end_day=1.8)) == 1
        assert db.temperature.query(pump_ids=[1])[0].temperature_c == 70.0


class TestSensorStore:
    def test_roundtrip(self, db):
        db.sensors.add(SensorMeta(sensor_id=5, pump_id=5, install_day=2.0))
        [meta] = db.sensors.all()
        assert meta.sensor_id == 5
        assert meta.install_day == 2.0

    def test_replace_on_same_id(self, db):
        db.sensors.add(SensorMeta(sensor_id=1, pump_id=1))
        db.sensors.add(SensorMeta(sensor_id=1, pump_id=2))
        [meta] = db.sensors.all()
        assert meta.pump_id == 2


class TestFileBacked:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "vibration.db")
        with VibrationDatabase(path) as db:
            db.measurements.add(make_measurement())
        with VibrationDatabase(path) as db:
            assert db.measurements.count() == 1


class _AlwaysCorrupt:
    """Minimal duck-typed injector: damages every row at byte 0."""

    def corrupts(self, point):
        return True

    def corrupt_index(self, point, n):
        return 0


class TestBlobIntegrity:
    def test_corrupt_blob_is_quarantined_on_query(self, db):
        db.measurements.add_many(
            make_measurement(pump=p, mid=p, seed=p) for p in range(3)
        )
        db.measurements.corrupt_blob(1, 1)
        records = db.measurements.query()
        assert [m.pump_id for m in records] == [0, 2]
        assert db.measurements.last_corrupt == {1: 1}
        [letter] = db.dead_letters.query(stage="storage")
        assert letter.pump_id == 1
        assert letter.measurement_id == 1
        assert letter.reason == db.measurements.QUARANTINE_REASON

    def test_query_arrays_filters_corrupt_and_stays_bit_identical(self, db):
        db.measurements.add_many(
            make_measurement(pump=p, mid=p, day=float(p), seed=p) for p in range(4)
        )
        db.measurements.corrupt_blob(2, 2, byte_index=7)
        pumps, mids, _, samples, dropped, corrupt, *_ = (
            db.measurements.query_arrays()
        )
        assert list(pumps) == [0, 1, 3]
        assert corrupt == {2: 1}
        assert dropped == {}
        # Survivors decode exactly as the record path decodes them.
        records = db.measurements.query()
        stacked = np.stack([m.samples for m in records]).astype(np.float64)
        assert np.array_equal(samples, stacked)

    def test_quarantine_insert_is_deduplicated_across_reads(self, db):
        db.measurements.add(make_measurement(seed=6))
        db.measurements.corrupt_blob(0, 0)
        db.measurements.query()
        db.measurements.query()
        db.measurements.query_arrays()
        assert len(db.dead_letters.query(stage="storage")) == 1

    def test_legacy_rows_without_checksum_still_decode(self, db):
        db.measurements.add(make_measurement(seed=7))
        db._conn.execute("UPDATE measurements SET checksum = NULL")
        [restored] = db.measurements.query()
        assert db.measurements.last_corrupt == {}
        assert restored.samples.shape == (16, 3)

    def test_checksum_column_is_migrated_on_legacy_files(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        with VibrationDatabase(path) as db:
            db._conn.execute("ALTER TABLE measurements DROP COLUMN checksum")
        with VibrationDatabase(path) as db:
            columns = {
                row[1]
                for row in db._conn.execute("PRAGMA table_info(measurements)")
            }
            assert "checksum" in columns
            db.measurements.add(make_measurement(seed=8))
            assert len(db.measurements.query()) == 1

    def test_digest_column_is_migrated_on_legacy_files(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        with VibrationDatabase(path) as db:
            db.measurements.add_many(
                make_measurement(pump=p, mid=p, day=float(p), seed=p)
                for p in range(3)
            )
            expected = db.measurements.query_arrays()
            db._conn.execute("ALTER TABLE measurements DROP COLUMN digest")
        with VibrationDatabase(path) as db:
            [(nulls,)] = db._conn.execute(
                "SELECT COUNT(*) FROM measurements WHERE digest IS NULL"
            )
            assert nulls == 3
            # NULL digests are hashed from the verified BLOB on read: the
            # keys equal the ones written at ingest.
            got = db.measurements.query_arrays()
            assert got.row_keys == expected.row_keys
            assert np.array_equal(got.samples, expected.samples)
            db.measurements.add(make_measurement(pump=9, mid=9, day=9.0, seed=9))
            [(nulls,)] = db._conn.execute(
                "SELECT COUNT(*) FROM measurements WHERE digest IS NULL"
            )
            assert nulls == 3

    def test_fault_blobs_damages_only_drawn_rows(self, db):
        db.measurements.add_many(
            make_measurement(pump=p, mid=p, seed=p) for p in range(3)
        )
        damaged = db.measurements.fault_blobs(_AlwaysCorrupt(), "storage.blob_corrupt")
        assert damaged == [(0, 0), (1, 1), (2, 2)]
        assert db.measurements.query() == []
        assert db.measurements.last_corrupt == {0: 1, 1: 1, 2: 1}


class TestQuickCheck:
    def test_opening_a_damaged_file_raises_corruption_error(self, tmp_path):
        path = tmp_path / "broken.db"
        path.write_bytes(b"this is not a sqlite database, honest\x00" * 64)
        with pytest.raises(DatabaseCorruptionError, match="RELIABILITY"):
            VibrationDatabase(str(path))

    def test_healthy_file_passes_quick_check(self, tmp_path):
        path = str(tmp_path / "healthy.db")
        with VibrationDatabase(path) as db:
            db.measurements.add(make_measurement())
        with VibrationDatabase(path) as db:
            assert db.measurements.count() == 1


def _stored_rows(db) -> dict[tuple[int, int], tuple[bytes, bytes]]:
    return {
        (pump, mid): (blob, digest)
        for pump, mid, blob, digest in db._conn.execute(
            "SELECT pump_id, measurement_id, samples, digest FROM measurements"
        )
    }


@st.composite
def _measurement_batches(draw):
    """Batches of small measurements, ids drawn from a narrow range so
    batches collide and rewrite rows under existing ids."""

    def one():
        k = draw(st.integers(2, 6))
        return Measurement(
            pump_id=draw(st.integers(0, 2)),
            measurement_id=draw(st.integers(0, 3)),
            timestamp_day=float(draw(st.integers(0, 5))),
            service_day=0.0,
            samples=draw(hnp.arrays(np.float32, (k, 3), elements=st.floats(width=32))),
        )

    return [
        [one() for _ in range(draw(st.integers(1, 6)))]
        for _ in range(draw(st.integers(1, 3)))
    ]


class TestRowDigests:
    """``add_many`` writes each row's memo key once, at ingest."""

    @settings(max_examples=60, deadline=None)
    @given(batches=_measurement_batches())
    def test_stored_digest_is_row_digest_of_the_decoded_row(self, batches):
        with VibrationDatabase() as db:
            for batch in batches:
                db.measurements.add_many(batch)
            last = {(m.pump_id, m.measurement_id): m for b in batches for m in b}
            stored = _stored_rows(db)
            assert stored.keys() == last.keys()
            for ids, (blob, digest) in stored.items():
                decoded = np.frombuffer(blob, dtype="<f4").reshape(-1, 3)
                # INSERT OR REPLACE under the same id rewrote the digest
                # with the samples.
                assert decoded.tobytes() == last[ids].samples.tobytes()
                assert digest == row_digests(decoded[np.newaxis])[0]
            window = db.measurements.query_arrays()
            assert window.row_keys == row_digests(window.samples)

    def test_digest_without_a_checksum_is_not_trusted(self, db):
        # A legacy row has no CRC to vouch for its digest: its key is
        # hashed from the BLOB it holds now.
        db.measurements.add(make_measurement(seed=3))
        db._conn.execute("UPDATE measurements SET checksum = NULL")
        db.measurements.corrupt_blob(0, 0, byte_index=2)
        [(blob, stale)] = _stored_rows(db).values()
        key = row_digests(np.frombuffer(blob, dtype="<f4")[np.newaxis])[0]
        assert key != stale
        assert db.measurements.query_arrays().row_keys == [key]

    def test_digest_of_a_rewritten_row_changes(self, db):
        db.measurements.add(make_measurement(seed=1))
        [(_, before)] = _stored_rows(db).values()
        db.measurements.add(make_measurement(seed=2))
        [(blob, after)] = _stored_rows(db).values()
        assert after != before
        assert after == row_digests(np.frombuffer(blob, dtype="<f4")[np.newaxis])[0]


class KnownKeys(DenseRows):
    """A row sink that declines the rows whose key it already knows."""

    def __init__(self, known):
        super().__init__()
        self.known = known

    def wants(self, key, row_id):
        return key not in self.known


class TestKnownRowKeys:
    """A row sink that declines known row keys gets every row verified
    but only the rows whose key is unknown decoded; everything else
    equals a fresh API's."""

    @staticmethod
    def assert_matches_fresh(db, known, retry):
        from repro.chaos.retry import RetryPolicy
        from repro.storage.api import AnalysisPeriod, DataRetrievalAPI

        period = AnalysisPeriod(-1.0, 1e9)
        policy = RetryPolicy() if retry else None
        fresh = DataRetrievalAPI(db, period, retry=policy)
        expected = fresh.measurement_matrices_with_health()
        api = DataRetrievalAPI(db, period, retry=policy)
        api.sink = KnownKeys(known)
        got = api.measurement_matrices_with_health()
        for a, b in zip(got[:3], expected[:3]):
            assert np.array_equal(a, b)
        assert got[4:7] == expected[4:7]
        assert expected.decoded == list(range(len(expected.row_keys)))
        assert got.decoded == [
            i for i, key in enumerate(got.row_keys) if key not in known
        ]
        assert got.samples.dtype == np.float32
        assert got.samples.shape[1:] == expected.samples.shape[1:]
        assert np.array_equal(got.samples, expected.samples[got.decoded])
        return got

    @pytest.mark.parametrize("retry", [False, True])
    def test_known_rows_are_verified_but_not_decoded(self, db, retry):
        db.measurements.add_many(
            make_measurement(pump=i % 3, mid=i, day=float(i), seed=i)
            for i in range(8)
        )
        keys = db.measurements.query_arrays().row_keys
        got = self.assert_matches_fresh(db, set(keys[:5]), retry)
        assert got.decoded == [5, 6, 7]
        # Every row known: nothing is decoded, and K survives.
        got = self.assert_matches_fresh(db, set(keys), retry)
        assert got.samples.shape == (0, 16, 3)
        # A known row whose BLOB rotted is still caught by its CRC.
        db.measurements.corrupt_blob(0, 3)
        got = self.assert_matches_fresh(db, set(keys), retry)
        assert got.corrupt == {0: 1}
        assert 3 not in got.measurement_ids

    @pytest.mark.parametrize("retry", [False, True])
    def test_majority_flip_with_known_rows(self, db, retry):
        # Five rows of K=16 against four of K=8; corrupting two 16-sample
        # rows flips the verified majority to 8, so rows known under K=16
        # are dropped and the K=8 rows come back, known or not.
        rows = [
            make_measurement(pump=i % 2, mid=i, day=float(i), k=8 if i % 2 else 16,
                             seed=i)
            for i in range(9)
        ]
        db.measurements.add_many(rows)
        # Rows 0 and 6 (K=16) and row 3 (K=8).
        known = {
            row_digests(m.samples.astype(np.float32)[np.newaxis])[0] for m in rows[::3]
        }
        db.measurements.corrupt_blob(0, 0)
        db.measurements.corrupt_blob(0, 4)
        got = self.assert_matches_fresh(db, known, retry)
        assert got.samples.shape[1] == 8
        assert list(got.measurement_ids) == [1, 3, 5, 7]
        assert got.decoded == [0, 2, 3]
        assert got.dropped_incomplete == {0: 3}
