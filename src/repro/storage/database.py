"""SQLite-backed stores for measurements, labels, events and temperature.

The paper's engine reads from a *sensor database* (vibration measurements)
and a *factory database* (FICS events, maintenance records, temperature).
Both are modelled here over a single SQLite connection — in-memory by
default, file-backed when a path is given — with acceleration blocks stored
as raw little-endian float32 BLOBs for compactness (the sensors themselves
emit 2-byte counts; float32 keeps full post-conversion precision at half
the float64 footprint).

Durability: every measurement BLOB carries a CRC32 checksum written at
insert time and verified on decode.  A row whose bytes no longer match —
at-rest bit rot, a torn page, a misbehaving filesystem — is *quarantined*
to the ``dead_letters`` table instead of poisoning downstream PSD/RUL
results or failing the run; legacy rows (``checksum IS NULL``, migrated
in place via ``ALTER TABLE``) skip verification.  Each row also stores
its row-memo key (``digest``, :func:`~repro.runtime.cache.row_key` of
the BLOB), so a reader can tell the rows it already holds without
decoding or hashing them; a ``NULL`` digest is hashed from the BLOB on
read.  File-backed databases
additionally run ``PRAGMA quick_check`` on open and raise
:class:`DatabaseCorruptionError` (recovery runbook: ``docs/RELIABILITY.md``)
when SQLite's own structures are damaged.
"""

from __future__ import annotations

import sqlite3
import zlib
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.runtime.cache import row_key
from repro.storage.records import (
    DeadLetterRecord,
    LabelRecord,
    MaintenanceEvent,
    Measurement,
    SensorMeta,
    TemperatureRecord,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sensors (
    sensor_id INTEGER PRIMARY KEY,
    pump_id INTEGER NOT NULL,
    sampling_rate_hz REAL NOT NULL,
    samples_per_measurement INTEGER NOT NULL,
    install_day REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS measurements (
    pump_id INTEGER NOT NULL,
    measurement_id INTEGER NOT NULL,
    timestamp_day REAL NOT NULL,
    service_day REAL NOT NULL,
    sampling_rate_hz REAL NOT NULL,
    num_samples INTEGER NOT NULL,
    samples BLOB NOT NULL,
    checksum INTEGER,
    digest BLOB,
    PRIMARY KEY (pump_id, measurement_id)
);
CREATE INDEX IF NOT EXISTS idx_measurements_window
    ON measurements (timestamp_day, pump_id, measurement_id);
CREATE TABLE IF NOT EXISTS labels (
    pump_id INTEGER NOT NULL,
    measurement_id INTEGER NOT NULL,
    zone TEXT NOT NULL,
    source TEXT NOT NULL,
    valid INTEGER NOT NULL,
    PRIMARY KEY (pump_id, measurement_id, source)
);
CREATE TABLE IF NOT EXISTS events (
    pump_id INTEGER NOT NULL,
    timestamp_day REAL NOT NULL,
    kind TEXT NOT NULL,
    service_day_at_event REAL NOT NULL,
    true_rul_days REAL
);
CREATE INDEX IF NOT EXISTS idx_events_time ON events (timestamp_day);
CREATE TABLE IF NOT EXISTS temperature (
    pump_id INTEGER NOT NULL,
    timestamp_day REAL NOT NULL,
    temperature_c REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_temperature_time ON temperature (timestamp_day);
CREATE TABLE IF NOT EXISTS dead_letters (
    stage TEXT NOT NULL,
    pump_id INTEGER NOT NULL,
    measurement_id INTEGER NOT NULL,
    reason TEXT NOT NULL,
    detail TEXT NOT NULL,
    timestamp_day REAL
);
CREATE INDEX IF NOT EXISTS idx_dead_letters_pump ON dead_letters (pump_id);
"""


#: Stored sample dtype: raw little-endian float32 BLOBs.
BLOB_DTYPE = "<f4"


def _majority(counts: dict[int, int]) -> int:
    """The most frequent block length; the smallest on a tie (0 if none)."""
    return min(counts, key=lambda length: (-counts[length], length), default=0)


def _stored_key(blob: bytes, checksum, digest) -> bytes:
    """Row-memo key of a verified stored row.

    The stored digest is trusted only behind a stored checksum;
    otherwise (a legacy row) the key is hashed from the BLOB.
    """
    if digest is None or checksum is None:
        return row_key(BLOB_DTYPE, blob)
    return digest


#: Decoded rows per batch a :class:`WindowRows` hands its sink: the only
#: sample buffer retrieval holds, reused for every batch (6 MiB of
#: float32 at ``K`` = 1,024).  Chosen from paired cold ``repro analyze``
#: runs on the 8,640-row fleet (docs/PERFORMANCE.md).
STREAM_BATCH_ROWS = 512


class DenseRows:
    """The default row sink: every decoded row, in one float32 matrix.

    A row sink takes a window's rows as retrieval verifies them:
    :meth:`start` opens a window of at most ``n`` rows of block length
    ``k`` (dropping any rows of an earlier start), :meth:`wants` is
    asked once per kept row, in row order, whether to decode it, and
    :meth:`put` receives each batch of decoded rows, in row order.
    :attr:`samples` is what :attr:`WindowArrays.samples` reports.  The
    transform layer's sink is
    :class:`~repro.core.pipeline.RowStream`, which never holds more
    than one batch.
    """

    def __init__(self):
        self.start(0, 0)

    def start(self, n: int, k: int) -> None:
        self._matrix = np.empty((n, k, 3), dtype=np.float32)
        self._rows = 0

    def wants(self, key: bytes, row_id) -> bool:
        return True

    def put(self, rows: np.ndarray) -> None:
        self._matrix[self._rows : self._rows + rows.shape[0]] = rows
        self._rows += rows.shape[0]

    @property
    def samples(self) -> np.ndarray:
        return self._matrix[: self._rows]


class WindowArrays(NamedTuple):
    """One analysis window's measurements as dense arrays.

    Attributes:
        pump_ids: pump id per kept row, shape ``(N,)``.
        measurement_ids: measurement id per kept row.
        service_days: service time per kept row.
        samples: the sink's :attr:`~DenseRows.samples`: float32
            ``(D, K, 3)`` blocks of every decoded row, in row order, for
            the default sink; ``K`` is the window's block length even
            when ``D`` is 0.
        dropped_incomplete: pump id → rows discarded for not matching
            the majority block length ``K``.
        corrupt: pump id → rows quarantined for a BLOB checksum
            mismatch.
        row_keys: row-memo key of each kept row
            (:func:`~repro.runtime.cache.row_key`), in row order.
        decoded: row index of each decoded row, ascending.
    """

    pump_ids: np.ndarray
    measurement_ids: np.ndarray
    service_days: np.ndarray
    samples: np.ndarray
    dropped_incomplete: dict[int, int]
    corrupt: dict[int, int]
    row_keys: list[bytes]
    decoded: list[int]


class WindowRows:
    """Accumulates a window's kept rows and streams the decoded ones.

    The id arrays are preallocated for ``n`` rows of length ``k``.  A
    row the ``sink`` wants is decoded into a reused float32 batch of
    :data:`STREAM_BATCH_ROWS` rows, and each full batch (and the last,
    short one) goes to ``sink.put``; the others keep their ids and key
    only.  Both retrieval paths
    (:meth:`MeasurementStore.query_arrays` and the record path of
    :class:`~repro.storage.api.DataRetrievalAPI`) build their
    :class:`WindowArrays` here, so one sink sees the same rows either
    way.
    """

    def __init__(self, n: int, k: int, sink):
        self.pumps = np.empty(n, dtype=int)
        self.mids = np.empty(n, dtype=int)
        self.service = np.empty(n)
        self.keys: list[bytes] = []
        self.decoded: list[int] = []
        self.sink = sink
        self._batch = np.empty((min(n, STREAM_BATCH_ROWS), k, 3), dtype=np.float32)
        self._queued = 0
        sink.start(n, k)

    def put(self, pump: int, mid: int, service: float, key: bytes, block) -> None:
        """Add one verified row; ``block`` is its ``"<f4"`` sample buffer.

        ``block`` (a stored BLOB or a contiguous float32 array) is
        decoded only when the sink wants the row.
        """
        index = len(self.keys)
        self.pumps[index], self.mids[index], self.service[index] = pump, mid, service
        self.keys.append(key)
        if self.sink.wants(key, (pump, mid)):
            self._batch[self._queued] = np.frombuffer(
                block, dtype=BLOB_DTYPE
            ).reshape(self._batch.shape[1:])
            self._queued += 1
            self.decoded.append(index)
            if self._queued == self._batch.shape[0]:
                self._flush()

    def put_stored(self, row: tuple) -> None:
        """Add one verified ``(pump, mid, service, k, blob, checksum, digest)``."""
        self.put(row[0], row[1], row[2], _stored_key(row[4], row[5], row[6]), row[4])

    def _flush(self) -> None:
        if self._queued:
            self.sink.put(self._batch[: self._queued])
            self._queued = 0

    def arrays(self, dropped_incomplete: dict, corrupt: dict) -> WindowArrays:
        """The window, once every decoded row has reached the sink."""
        self._flush()
        n = len(self.keys)
        return WindowArrays(
            self.pumps[:n],
            self.mids[:n],
            self.service[:n],
            self.sink.samples,
            dropped_incomplete,
            corrupt,
            self.keys,
            self.decoded,
        )


class DatabaseCorruptionError(RuntimeError):
    """SQLite's own structures failed ``PRAGMA quick_check`` on open.

    This is file-level damage (not a single bad BLOB, which the checksum
    layer quarantines row by row).  Recovery path — see
    ``docs/RELIABILITY.md``: restore from backup, or salvage readable
    rows with ``sqlite3 <db> ".recover"`` into a fresh database.
    """


class VibrationDatabase:
    """Owner of the SQLite connection and the typed store facades.

    File-backed databases get throughput pragmas on open: WAL journaling
    (readers never block the gateway's writes), ``synchronous=NORMAL``
    (safe under WAL) and in-memory temp stores; BLOBs are read through
    SQLite's page cache, with no file map.  In-memory databases skip
    them — WAL is meaningless without a file.  File-backed opens also
    run an integrity probe (``PRAGMA quick_check``) so structural
    corruption surfaces as :class:`DatabaseCorruptionError` at open time
    rather than as a random operational failure mid-run.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self.in_memory = path == ":memory:" or "mode=memory" in path
        self._conn = sqlite3.connect(path)
        if not self.in_memory:
            self._quick_check()
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA temp_store=MEMORY")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self.measurements = MeasurementStore(self._conn)
        self.labels = LabelStore(self._conn)
        self.events = EventStore(self._conn)
        self.temperature = TemperatureStore(self._conn)
        self.sensors = SensorStore(self._conn)
        self.dead_letters = DeadLetterStore(self._conn)

    def _quick_check(self) -> None:
        """Fail fast on structural file damage (file-backed only)."""
        try:
            rows = self._conn.execute("PRAGMA quick_check").fetchall()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise DatabaseCorruptionError(
                f"{self.path}: database file is corrupt ({exc}); "
                "see docs/RELIABILITY.md for the recovery runbook"
            ) from exc
        findings = [str(row[0]) for row in rows if row and row[0] != "ok"]
        if findings:
            self._conn.close()
            raise DatabaseCorruptionError(
                f"{self.path}: PRAGMA quick_check reported "
                f"{'; '.join(findings[:3])}; see docs/RELIABILITY.md "
                "for the recovery runbook"
            )

    def _migrate(self) -> None:
        """In-place schema upgrades for databases of older builds.

        Adds the nullable ``checksum`` and ``digest`` columns to
        ``measurements`` when missing.  Legacy rows keep ``NULL`` until
        rewritten by an ``INSERT OR REPLACE``: a ``NULL`` checksum skips
        verification, and a ``NULL`` digest is hashed from the BLOB on
        read.  Drops the time-only index of older builds: the schema's
        ``idx_measurements_window`` serves every query it did.
        """
        self._conn.execute("DROP INDEX IF EXISTS idx_measurements_time")
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(measurements)")
        }
        for name, kind in (("checksum", "INTEGER"), ("digest", "BLOB")):
            if name not in columns:
                self._conn.execute(f"ALTER TABLE measurements ADD COLUMN {name} {kind}")
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "VibrationDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SensorStore:
    """Sensor metadata table."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def add(self, meta: SensorMeta) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO sensors VALUES (?, ?, ?, ?, ?)",
            (
                meta.sensor_id,
                meta.pump_id,
                meta.sampling_rate_hz,
                meta.samples_per_measurement,
                meta.install_day,
            ),
        )
        self._conn.commit()

    def all(self) -> list[SensorMeta]:
        rows = self._conn.execute(
            "SELECT sensor_id, pump_id, sampling_rate_hz, samples_per_measurement,"
            " install_day FROM sensors ORDER BY sensor_id"
        ).fetchall()
        return [SensorMeta(*row) for row in rows]


class MeasurementStore:
    """Vibration measurement table with BLOB-encoded sample blocks.

    Every read path verifies the per-BLOB CRC32 checksum; rows whose
    bytes no longer match are skipped and quarantined to the
    ``dead_letters`` table (stage ``"storage"``, reason
    ``"blob-checksum-mismatch"``).  Quarantine inserts are deduplicated,
    so retried reads of the same damaged row record it exactly once.
    The most recent read's per-pump corruption counts are exposed as
    :attr:`last_corrupt` for the health report.
    """

    QUARANTINE_STAGE = "storage"
    QUARANTINE_REASON = "blob-checksum-mismatch"

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn
        #: pump id → rows quarantined by the most recent query.
        self.last_corrupt: dict[int, int] = {}

    @staticmethod
    def _encode(samples: np.ndarray) -> bytes:
        return np.ascontiguousarray(samples, dtype=BLOB_DTYPE).tobytes()

    @staticmethod
    def _checksum(blob: bytes) -> int:
        return zlib.crc32(blob)

    def _intact(self, blob: bytes, checksum) -> bool:
        """True when the BLOB matches its stored CRC32.

        ``checksum IS NULL`` marks a legacy row written before the
        durability layer — nothing to verify against, so it passes.
        """
        return checksum is None or self._checksum(blob) == checksum

    def _quarantine(self, rows: list[tuple[int, int, int]]) -> None:
        """Dead-letter ``(pump_id, measurement_id, blob_bytes)`` rows.

        Tallies :attr:`last_corrupt` and writes every quarantine row in
        one transaction.  Callers pass the rows only once their SELECT
        cursor is exhausted: on Python 3.10 a commit resets every open
        statement of the connection.
        """
        for pump_id, _, _ in rows:
            self.last_corrupt[pump_id] = self.last_corrupt.get(pump_id, 0) + 1
        if not rows:
            return
        with self._conn:
            # NOT EXISTS dedupe: transient-read retries re-query the same
            # rows; the quarantine record must not multiply.
            self._conn.executemany(
                "INSERT INTO dead_letters"
                " SELECT ?, ?, ?, ?, ?, NULL"
                " WHERE NOT EXISTS (SELECT 1 FROM dead_letters"
                "  WHERE stage = ? AND pump_id = ? AND measurement_id = ?"
                "  AND reason = ?)",
                [
                    (
                        self.QUARANTINE_STAGE,
                        pump_id,
                        mid,
                        self.QUARANTINE_REASON,
                        f"stored CRC32 does not match {size}-byte BLOB",
                        self.QUARANTINE_STAGE,
                        pump_id,
                        mid,
                        self.QUARANTINE_REASON,
                    )
                    for pump_id, mid, size in rows
                ],
            )

    @staticmethod
    def _decode(blob: bytes, num_samples: int) -> np.ndarray:
        # Zero-copy: a read-only float32 view over the BLOB bytes — no
        # per-row allocation and no silent float64 upcast.  Consumers that
        # need float64 math cast per transform tile (exactly: every
        # float32 value is representable in float64).
        return np.frombuffer(blob, dtype=BLOB_DTYPE).reshape(num_samples, 3)

    def add(self, measurement: Measurement) -> None:
        self.add_many([measurement])

    def add_many(self, measurements: Iterable[Measurement]) -> None:
        rows = []
        for m in measurements:
            blob = self._encode(m.samples)
            rows.append(
                (
                    m.pump_id,
                    m.measurement_id,
                    m.timestamp_day,
                    m.service_day,
                    m.sampling_rate_hz,
                    m.num_samples,
                    blob,
                    self._checksum(blob),
                    row_key(BLOB_DTYPE, blob),
                )
            )
        # One transaction for the whole batch: a single fsync instead of
        # one per implicit autocommit, and all-or-nothing semantics.
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO measurements (pump_id, measurement_id,"
                " timestamp_day, service_day, sampling_rate_hz, num_samples,"
                " samples, checksum, digest) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    @staticmethod
    def _window(
        start_day: float, end_day: float, pump_ids: Sequence[int] | None
    ) -> tuple[str, list[object]]:
        """``WHERE`` clause and parameters selecting one analysis window."""
        where = " WHERE timestamp_day >= ? AND timestamp_day < ?"
        params: list[object] = [float(start_day), float(end_day)]
        if pump_ids is not None:
            placeholders = ",".join("?" * len(pump_ids))
            where += f" AND pump_id IN ({placeholders})"
            params.extend(int(p) for p in pump_ids)
        return where, params

    def query(
        self,
        start_day: float = -np.inf,
        end_day: float = np.inf,
        pump_ids: Sequence[int] | None = None,
    ) -> list[Measurement]:
        """Measurements with ``start_day <= timestamp_day < end_day``."""
        where, params = self._window(start_day, end_day, pump_ids)
        rows = self._conn.execute(
            "SELECT pump_id, measurement_id, timestamp_day, service_day,"
            " sampling_rate_hz, num_samples, samples, checksum FROM measurements"
            + where
            + " ORDER BY timestamp_day, pump_id, measurement_id",
            params,
        ).fetchall()
        self.last_corrupt = {}
        out = []
        corrupt = []
        for pump_id, mid, ts, service, fs, k, blob, checksum in rows:
            if not self._intact(blob, checksum):
                corrupt.append((pump_id, mid, len(blob)))
                continue
            out.append(
                Measurement(
                    pump_id=pump_id,
                    measurement_id=mid,
                    timestamp_day=ts,
                    service_day=service,
                    samples=self._decode(blob, k),
                    sampling_rate_hz=fs,
                )
            )
        self._quarantine(corrupt)
        return out

    def query_arrays(
        self,
        start_day: float = -np.inf,
        end_day: float = np.inf,
        pump_ids: Sequence[int] | None = None,
        sink=None,
    ) -> WindowArrays:
        """Bulk fetch straight into dense arrays, skipping per-row records.

        Same selection, ordering, checksum verification and
        majority-``K`` filtering as :meth:`query` followed by record
        stacking, with bit-identical samples.  The rows stream from the
        cursor: a ``GROUP BY num_samples`` count over the window sizes
        the window's id arrays, and each verified BLOB the ``sink``
        wants is decoded into a reused float32 batch (the stored
        precision, so there is no upcast) that reaches the sink as soon
        as it fills (see :class:`WindowRows`).  The default sink,
        :class:`DenseRows`, collects every row into one ``(N, K, 3)``
        matrix.  Verified rows of another length wait in a side list:
        when checksum failures move the verified majority onto another
        length, the sink is restarted and those rows stream into it.
        Quarantine rows are written once the cursor is exhausted.

        Every BLOB in the window is CRC-verified, whether or not the
        sink wants it decoded; :attr:`WindowArrays.decoded` says which
        rows were.
        """
        sink = DenseRows() if sink is None else sink
        where, params = self._window(start_day, end_day, pump_ids)
        others = []
        corrupt_rows = []
        # One read snapshot for the count and the rows, so a concurrent
        # writer cannot outgrow the preallocated id arrays.
        self._conn.execute("SAVEPOINT query_arrays")
        try:
            lengths = dict(
                self._conn.execute(
                    "SELECT num_samples, COUNT(*) FROM measurements"
                    + where
                    + " GROUP BY num_samples",
                    params,
                ).fetchall()
            )
            k = _majority(lengths)
            out = WindowRows(lengths.get(k, 0), k, sink)
            cursor = self._conn.execute(
                "SELECT pump_id, measurement_id, service_day, num_samples,"
                " samples, checksum, digest FROM measurements"
                + where
                + " ORDER BY timestamp_day, pump_id, measurement_id",
                params,
            )
            for row in cursor:
                if not self._intact(row[4], row[5]):
                    corrupt_rows.append((row[0], row[1], len(row[4])))
                    lengths[row[3]] -= 1
                elif row[3] == k:
                    out.put_stored(row)
                else:
                    others.append(row)
        finally:
            self._conn.execute("RELEASE query_arrays")
        self.last_corrupt = {}
        self._quarantine(corrupt_rows)
        corrupt = dict(self.last_corrupt)
        verified = {length: n for length, n in lengths.items() if n}
        if not verified:
            return WindowRows(0, 0, sink).arrays({}, corrupt)

        dropped_incomplete: dict[int, int] = {}
        majority = _majority(verified)
        if majority != k:
            # Checksum failures moved the verified majority: every row
            # kept so far is dropped (the sink restarts, losing what it
            # took of them) and the side list holds the rows to keep.
            for pump_id in out.pumps[: len(out.keys)].tolist():
                dropped_incomplete[pump_id] = dropped_incomplete.get(pump_id, 0) + 1
            out = WindowRows(verified[majority], majority, sink)
            for row in others:
                if row[3] == majority:
                    out.put_stored(row)
        for row in others:
            if row[3] != majority:
                dropped_incomplete[row[0]] = dropped_incomplete.get(row[0], 0) + 1
        return out.arrays(dropped_incomplete, corrupt)

    def read_rows(
        self, pairs: Sequence[tuple[int, int]], keys: Sequence[bytes]
    ) -> np.ndarray:
        """The float32 ``(m, K, 3)`` blocks of the stored rows ``pairs``
        (``(pump_id, measurement_id)``), in order: a targeted read by
        primary key of rows a window read took.

        Each BLOB is CRC-verified and must hold the content whose row
        key is ``keys[i]``, the key that window read gave it.

        Raises:
            RuntimeError: naming the first row that is gone, fails its
                checksum or holds other content: a writer replaced it
                since the window read.
        """
        blocks = []
        for (pump_id, mid), key in zip(pairs, keys):
            row = self._conn.execute(
                "SELECT num_samples, samples, checksum, digest FROM measurements"
                " WHERE pump_id = ? AND measurement_id = ?",
                (pump_id, mid),
            ).fetchone()
            if (
                row is None
                or not self._intact(row[1], row[2])
                or _stored_key(row[1], row[2], row[3]) != key
            ):
                raise RuntimeError(
                    f"measurement (pump {pump_id}, id {mid}) was stored anew"
                    " after the analysis window was read; run the analysis again"
                )
            blocks.append(self._decode(row[1], row[0]))
        return np.stack(blocks)

    def count(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM measurements").fetchone()
        return int(n)

    # ------------------------------------------------------------------
    # Chaos hooks (at-rest corruption).
    # ------------------------------------------------------------------
    def corrupt_blob(
        self, pump_id: int, measurement_id: int, byte_index: int = 0
    ) -> None:
        """Flip one byte of a stored BLOB *without* updating its checksum.

        Test/chaos hook simulating at-rest bit rot; the next read of the
        row fails verification and quarantines it.
        """
        row = self._conn.execute(
            "SELECT samples FROM measurements WHERE pump_id = ?"
            " AND measurement_id = ?",
            (pump_id, measurement_id),
        ).fetchone()
        if row is None:
            raise KeyError(f"no measurement ({pump_id}, {measurement_id})")
        blob = bytearray(row[0])
        blob[byte_index % len(blob)] ^= 0xFF
        with self._conn:
            self._conn.execute(
                "UPDATE measurements SET samples = ? WHERE pump_id = ?"
                " AND measurement_id = ?",
                (bytes(blob), pump_id, measurement_id),
            )

    def fault_blobs(self, injector, point: str) -> list[tuple[int, int]]:
        """Damage stored BLOBs per a chaos injector's ``corrupt`` faults.

        Iterates rows in deterministic ``(pump_id, measurement_id)``
        order, drawing one fire decision per row at ``point`` (duck-typed
        :meth:`FaultInjector.corrupts` / :meth:`FaultInjector.corrupt_index`),
        so the damaged set is a pure function of the plan seed.

        Returns:
            The ``(pump_id, measurement_id)`` pairs corrupted.
        """
        keys = self._conn.execute(
            "SELECT pump_id, measurement_id, num_samples FROM measurements"
            " ORDER BY pump_id, measurement_id"
        ).fetchall()
        damaged: list[tuple[int, int]] = []
        for pump_id, mid, num_samples in keys:
            if injector.corrupts(point):
                index = injector.corrupt_index(point, num_samples * 3 * 4)
                self.corrupt_blob(pump_id, mid, index)
                damaged.append((pump_id, mid))
        return damaged


class LabelStore:
    """Expert label table."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def add(self, label: LabelRecord) -> None:
        self.add_many([label])

    def add_many(self, labels: Iterable[LabelRecord]) -> None:
        rows = [
            (l.pump_id, l.measurement_id, l.zone, l.source, int(l.valid)) for l in labels
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO labels VALUES (?, ?, ?, ?, ?)", rows
            )

    def query(
        self,
        pump_ids: Sequence[int] | None = None,
        only_valid: bool = True,
    ) -> list[LabelRecord]:
        sql = "SELECT pump_id, measurement_id, zone, source, valid FROM labels"
        clauses = []
        params: list[object] = []
        if only_valid:
            clauses.append("valid = 1")
        if pump_ids is not None:
            placeholders = ",".join("?" * len(pump_ids))
            clauses.append(f"pump_id IN ({placeholders})")
            params.extend(int(p) for p in pump_ids)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY pump_id, measurement_id"
        return [
            LabelRecord(pump_id=p, measurement_id=m, zone=z, source=s, valid=bool(v))
            for p, m, z, s, v in self._conn.execute(sql, params)
        ]

    def count(self, only_valid: bool = False) -> int:
        sql = "SELECT COUNT(*) FROM labels"
        if only_valid:
            sql += " WHERE valid = 1"
        (n,) = self._conn.execute(sql).fetchone()
        return int(n)


class EventStore:
    """Maintenance event table (PM/BM)."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def add(self, event: MaintenanceEvent) -> None:
        self.add_many([event])

    def add_many(self, events: Iterable[MaintenanceEvent]) -> None:
        rows = [
            (e.pump_id, e.timestamp_day, e.kind, e.service_day_at_event, e.true_rul_days)
            for e in events
        ]
        with self._conn:
            self._conn.executemany("INSERT INTO events VALUES (?, ?, ?, ?, ?)", rows)

    def query(
        self,
        start_day: float = -np.inf,
        end_day: float = np.inf,
        pump_ids: Sequence[int] | None = None,
    ) -> list[MaintenanceEvent]:
        sql = (
            "SELECT pump_id, timestamp_day, kind, service_day_at_event, true_rul_days"
            " FROM events WHERE timestamp_day >= ? AND timestamp_day < ?"
        )
        params: list[object] = [float(start_day), float(end_day)]
        if pump_ids is not None:
            placeholders = ",".join("?" * len(pump_ids))
            sql += f" AND pump_id IN ({placeholders})"
            params.extend(int(p) for p in pump_ids)
        sql += " ORDER BY timestamp_day"
        return [
            MaintenanceEvent(
                pump_id=p,
                timestamp_day=t,
                kind=k,
                service_day_at_event=s,
                true_rul_days=r if r is not None else float("nan"),
            )
            for p, t, k, s, r in self._conn.execute(sql, params)
        ]


class DeadLetterStore:
    """Quarantined-measurement table (the pipeline's dead-letter sink)."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def add(self, record: DeadLetterRecord) -> None:
        self.add_many([record])

    def add_many(self, records: Iterable[DeadLetterRecord]) -> None:
        rows = [
            (
                r.stage,
                r.pump_id,
                r.measurement_id,
                r.reason,
                r.detail,
                None if np.isnan(r.timestamp_day) else r.timestamp_day,
            )
            for r in records
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT INTO dead_letters VALUES (?, ?, ?, ?, ?, ?)", rows
            )

    def query(
        self,
        stage: str | None = None,
        pump_ids: Sequence[int] | None = None,
    ) -> list[DeadLetterRecord]:
        sql = (
            "SELECT stage, pump_id, measurement_id, reason, detail, timestamp_day"
            " FROM dead_letters"
        )
        clauses: list[str] = []
        params: list[object] = []
        if stage is not None:
            clauses.append("stage = ?")
            params.append(stage)
        if pump_ids is not None:
            placeholders = ",".join("?" * len(pump_ids))
            clauses.append(f"pump_id IN ({placeholders})")
            params.extend(int(p) for p in pump_ids)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY pump_id, measurement_id"
        return [
            DeadLetterRecord(
                stage=s,
                pump_id=p,
                measurement_id=m,
                reason=reason,
                detail=detail,
                timestamp_day=t if t is not None else float("nan"),
            )
            for s, p, m, reason, detail, t in self._conn.execute(sql, params)
        ]

    def count(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM dead_letters").fetchone()
        return int(n)


class TemperatureStore:
    """FICS temperature reading table."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def add_many(self, records: Iterable[TemperatureRecord]) -> None:
        rows = [(r.pump_id, r.timestamp_day, r.temperature_c) for r in records]
        with self._conn:
            self._conn.executemany("INSERT INTO temperature VALUES (?, ?, ?)", rows)

    def query(
        self,
        start_day: float = -np.inf,
        end_day: float = np.inf,
        pump_ids: Sequence[int] | None = None,
    ) -> list[TemperatureRecord]:
        sql = (
            "SELECT pump_id, timestamp_day, temperature_c FROM temperature"
            " WHERE timestamp_day >= ? AND timestamp_day < ?"
        )
        params: list[object] = [float(start_day), float(end_day)]
        if pump_ids is not None:
            placeholders = ",".join("?" * len(pump_ids))
            sql += f" AND pump_id IN ({placeholders})"
            params.extend(int(p) for p in pump_ids)
        sql += " ORDER BY timestamp_day"
        return [
            TemperatureRecord(pump_id=p, timestamp_day=t, temperature_c=c)
            for p, t, c in self._conn.execute(sql, params)
        ]
