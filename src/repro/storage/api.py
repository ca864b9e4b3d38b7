"""Analysis-period data retrieval API (the bottom layer of Fig. 7).

The paper exposes a "common restful-type API" that hands the transformation
layer every record inside an *analysis period* ``[Ts, Te)``.  The period is
a rolling window: the system refreshes it periodically (hourly in the
paper's example) so the engine recomputes on the newest data.

``DataRetrievalAPI`` provides exactly that contract over a
:class:`~repro.storage.database.VibrationDatabase`, including the rolling
refresh (``advance``) semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.cache import row_key
from repro.storage.database import (
    BLOB_DTYPE,
    DenseRows,
    VibrationDatabase,
    WindowArrays,
    WindowRows,
)
from repro.storage.records import (
    LabelRecord,
    MaintenanceEvent,
    Measurement,
    TemperatureRecord,
)

#: Injection point name (duck-typed contract with repro.chaos.inject).
STORAGE_READ_POINT = "storage.read"


@dataclass(frozen=True)
class AnalysisPeriod:
    """Half-open analysis window ``[start_day, end_day)``.

    Attributes:
        start_day: ``Ts`` in deployment epoch days.
        end_day: ``Te`` in deployment epoch days; must exceed ``Ts``.
    """

    start_day: float
    end_day: float

    def __post_init__(self) -> None:
        if not self.end_day > self.start_day:
            raise ValueError("end_day must be greater than start_day")

    @property
    def duration_days(self) -> float:
        return self.end_day - self.start_day

    def advanced(self, delta_days: float) -> "AnalysisPeriod":
        """The next rolling window: the paper's ``Te_j = Te_{j-1} + delta``.

        The start is kept fixed (the engine accumulates history) and the
        end slides forward, matching the refresh rule of Sec. III-B.
        """
        if delta_days <= 0:
            raise ValueError("delta_days must be positive")
        return AnalysisPeriod(self.start_day, self.end_day + delta_days)

    def contains(self, day: float) -> bool:
        return self.start_day <= day < self.end_day


class DataRetrievalAPI:
    """Typed retrieval facade scoped to an analysis period."""

    def __init__(
        self,
        database: VibrationDatabase,
        period: AnalysisPeriod,
        injector=None,
        retry=None,
        clock=None,
    ):
        """Create a retrieval facade.

        Args:
            database: the backing sensor database.
            period: the initial analysis window.
            injector: optional chaos fault injector; measurement reads
                are faulted at ``storage.read``.
            retry: optional retry policy (duck-typed
                :class:`repro.chaos.retry.RetryPolicy`) applied to
                transient read failures.
            clock: clock for the retry policy's backoff.
        """
        self._db = database
        self.period = period
        self._injector = injector
        self._retry = retry
        self._clock = clock
        #: The row sink matrix retrieval streams the window into (see
        #: :class:`~repro.storage.database.DenseRows`); None collects
        #: every row into :attr:`WindowArrays.samples`.  The engine sets
        #: its transform stream here around its retrieval call.
        self.sink = None

    def advance(self, delta_days: float) -> None:
        """Slide the analysis window forward (periodic refresh)."""
        self.period = self.period.advanced(delta_days)

    # ------------------------------------------------------------------
    # Retrieval endpoints.
    # ------------------------------------------------------------------
    def get_measurements(self, pump_ids: list[int] | None = None) -> list[Measurement]:
        """Measurements inside the current analysis period.

        A configured injector can fault the read (transient errors,
        retried under the retry policy when one is set) and mutate the
        returned records — the engine's quarantine logic downstream must
        cope with whatever comes back.
        """

        def _fetch() -> list[Measurement]:
            if self._injector is not None:
                self._injector.maybe_fail(STORAGE_READ_POINT)
            return self._db.measurements.query(
                self.period.start_day, self.period.end_day, pump_ids
            )

        if self._retry is not None:
            records = self._retry.run(_fetch, clock=self._clock)
        else:
            records = _fetch()
        if self._injector is not None:
            records = self._injector.mutate_measurements(STORAGE_READ_POINT, records)
        return records

    def read_rows(self, pairs, keys) -> np.ndarray:
        """:meth:`~repro.storage.database.MeasurementStore.read_rows`
        straight from the store: a targeted read of rows a window read
        took draws nothing from the injector and is not retried."""
        return self._db.measurements.read_rows(pairs, keys)

    def get_labels(self, pump_ids: list[int] | None = None) -> list[LabelRecord]:
        """Valid expert labels (invalid labels are discarded, as the paper does)."""
        return self._db.labels.query(pump_ids=pump_ids, only_valid=True)

    def get_events(self, pump_ids: list[int] | None = None) -> list[MaintenanceEvent]:
        """Maintenance events inside the current analysis period."""
        return self._db.events.query(self.period.start_day, self.period.end_day, pump_ids)

    def get_temperature(self, pump_ids: list[int] | None = None) -> list[TemperatureRecord]:
        """FICS temperature readings inside the current analysis period."""
        return self._db.temperature.query(
            self.period.start_day, self.period.end_day, pump_ids
        )

    # ------------------------------------------------------------------
    # Matrix construction helpers for the transformation layer.
    # ------------------------------------------------------------------
    def measurement_matrices(
        self, pump_ids: list[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense arrays ``(pump_ids, measurement_ids, service_days, samples)``.

        Measurements whose block length differs from the majority ``K``
        are dropped (incomplete sensor transfers cannot be stacked), which
        implements the "eliminating invalid measurements to prevent
        unwanted computations" step of the preprocessing layer.
        """
        return self.measurement_matrices_with_health(pump_ids)[:4]

    def measurement_matrices_with_health(
        self, pump_ids: list[int] | None = None
    ) -> WindowArrays:
        """:meth:`measurement_matrices` plus per-pump drop accounting.

        Every stored BLOB in the window is CRC-verified on every call.
        Both paths — the cursor stream of
        :meth:`~repro.storage.database.MeasurementStore.query_arrays`
        and, under a chaos injector or a retry policy, the record path
        below — hand the kept rows to :attr:`sink` through one
        :class:`~repro.storage.database.WindowRows`; with no sink,
        ``samples`` holds every kept row.
        """
        sink = DenseRows() if self.sink is None else self.sink
        if self._injector is None and self._retry is None:
            # Fast path: no chaos hooks to honour, so the store streams
            # BLOBs straight from its cursor into the sink (bit-identical
            # to the record path below, without materializing records).
            return self._db.measurements.query_arrays(
                self.period.start_day, self.period.end_day, pump_ids, sink
            )
        records = self.get_measurements(pump_ids)
        # The store quarantined checksum failures during the query; its
        # per-pump tally is the record path's corruption accounting.
        corrupt = dict(self._db.measurements.last_corrupt)
        if not records:
            return WindowRows(0, 0, sink).arrays({}, corrupt)
        counts = np.bincount([r.num_samples for r in records])
        k = int(counts.argmax())
        out = WindowRows(int(counts[k]), k, sink)
        dropped_incomplete: dict[int, int] = {}
        for r in records:
            if r.num_samples != k:
                dropped_incomplete[r.pump_id] = dropped_incomplete.get(r.pump_id, 0) + 1
                continue
            # Keyed by content: an injector may have rewritten the record.
            block = np.ascontiguousarray(r.samples, dtype=BLOB_DTYPE)
            key = row_key(BLOB_DTYPE, block)
            out.put(r.pump_id, r.measurement_id, r.service_day, key, block)
        return out.arrays(dropped_incomplete, corrupt)
