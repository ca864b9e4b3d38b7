"""Record types shared by the storage, simulation and analysis layers.

Timestamps are plain floats in *days* since the deployment epoch: the
paper's analysis operates on service-time axes measured in days, and a
single numeric time base keeps the simulators, stores and analytics
trivially interoperable (converting to wall-clock datetimes is a display
concern).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PM = "PM"
"""Planned (scheduled) maintenance event kind."""

BM = "BM"
"""Breakdown maintenance event kind."""

LABEL_SOURCE_DATA = "data-driven"
"""Label produced by an expert reading sensor data."""

LABEL_SOURCE_PHYSICAL = "physical-checking"
"""Label produced by physically inspecting a replaced equipment."""


@dataclass(frozen=True)
class SensorMeta:
    """Static description of one deployed vibration sensor.

    Attributes:
        sensor_id: unique sensor identifier.
        pump_id: equipment the sensor is attached to (one sensor per
            equipment, as the paper assumes).
        sampling_rate_hz: configured sampling rate.
        samples_per_measurement: block length ``K``.
        install_day: deployment epoch day the sensor went live.
    """

    sensor_id: int
    pump_id: int
    sampling_rate_hz: float = 4000.0
    samples_per_measurement: int = 1024
    install_day: float = 0.0


@dataclass(frozen=True)
class Measurement:
    """One vibration measurement: ``K`` tri-axial acceleration samples.

    Attributes:
        pump_id: equipment identifier.
        measurement_id: per-pump measurement sequence number.
        timestamp_day: absolute time of the measurement (deployment epoch
            days).
        service_day: pump service time at the measurement, in days since
            the pump's (latest) installation.
        samples: acceleration block, shape ``(K, 3)`` in g.
        sampling_rate_hz: sampling rate the block was captured at.
    """

    pump_id: int
    measurement_id: int
    timestamp_day: float
    service_day: float
    samples: np.ndarray
    sampling_rate_hz: float = 4000.0

    def __post_init__(self) -> None:
        # float32 blocks (the storage layer's zero-copy BLOB views) are
        # kept as-is — upcasting here would force a copy per record and
        # the transform upcasts per tile itself (exactly, since every
        # float32 is representable).  Everything else is coerced to
        # float64 as before.
        arr = np.asarray(self.samples)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"samples must have shape (K, 3), got {arr.shape}")
        object.__setattr__(self, "samples", arr)

    @property
    def num_samples(self) -> int:
        return int(self.samples.shape[0])


@dataclass(frozen=True)
class LabelRecord:
    """Expert zone label for one measurement.

    Attributes:
        pump_id: equipment identifier.
        measurement_id: measurement the label refers to.
        zone: one of ``"A"``, ``"BC"``, ``"D"`` — or an arbitrary string
            for invalid labels (``valid`` is the authoritative flag).
        source: ``"data-driven"`` or ``"physical-checking"``.
        valid: False for labels the paper discards as human mistakes.
    """

    pump_id: int
    measurement_id: int
    zone: str
    source: str = LABEL_SOURCE_DATA
    valid: bool = True


@dataclass(frozen=True)
class MaintenanceEvent:
    """A PM or BM maintenance action on one equipment.

    Attributes:
        pump_id: equipment identifier.
        timestamp_day: when the action happened.
        kind: ``"PM"`` (planned) or ``"BM"`` (breakdown).
        service_day_at_event: pump service time when it was replaced.
        true_rul_days: ground-truth remaining useful lifetime at the
            event (simulation only; positive for PM waste, negative when
            the pump had already failed).  NaN when unknown.
    """

    pump_id: int
    timestamp_day: float
    kind: str
    service_day_at_event: float
    true_rul_days: float = float("nan")

    def __post_init__(self) -> None:
        if self.kind not in (PM, BM):
            raise ValueError(f"kind must be PM or BM, got {self.kind!r}")


@dataclass(frozen=True)
class TemperatureRecord:
    """One FICS temperature reading for an equipment."""

    pump_id: int
    timestamp_day: float
    temperature_c: float


@dataclass(frozen=True)
class DeadLetterRecord:
    """A measurement quarantined somewhere along the pipeline.

    The robustness layer never silently discards data: a measurement
    that cannot be transported, converted or analyzed is recorded here
    so the operator report (and post-mortems) can account for it.

    Attributes:
        stage: pipeline stage that quarantined it (``"transport"``,
            ``"gateway"``, ``"engine"``).
        pump_id: equipment (or sensor) the measurement came from.
        measurement_id: per-pump measurement sequence number.
        reason: short machine-readable cause (e.g.
            ``"transfer-failed"``, ``"reassembly-failed"``,
            ``"conversion-failed"``, ``"non-finite"``,
            ``"circuit-open"``).
        detail: free-text diagnostic (exception text etc.).
        timestamp_day: when the measurement was taken, if known.
    """

    stage: str
    pump_id: int
    measurement_id: int
    reason: str
    detail: str = ""
    timestamp_day: float = float("nan")
