"""The end-to-end vibration analysis engine.

Binds the database-backed retrieval API (Fig. 7's bottom layer) to the
pure-array :class:`~repro.core.pipeline.AnalysisPipeline` and packages the
results — per-measurement zones, lifetime models, per-pump RUL and the
cost accounting — into a single report, the artifact the paper's GUI would
render for the fab manager.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cost import CostModel
from repro.core.classify import ZONE_A
from repro.core.diagnosis import Diagnosis, SpectralDiagnoser
from repro.core.peaks import extract_harmonic_peaks
from repro.core.pipeline import (
    AnalysisPipeline,
    PipelineConfig,
    PipelineResult,
    zone_a_rows,
)
from repro.core.ransac import LineModel
from repro.core.rul import RULPrediction
from repro.runtime.checkpoint import RowJournal
from repro.runtime.fleet import FleetExecutor, SupervisionReport
from repro.runtime.profile import RuntimeProfile
from repro.storage.api import DataRetrievalAPI
from repro.storage.database import STREAM_BATCH_ROWS
from repro.storage.records import LabelRecord, MaintenanceEvent


class InsufficientDataError(ValueError):
    """The analysis period holds too little usable data to analyze.

    Raised instead of a bare :class:`ValueError` so callers practicing
    graceful degradation (the chaos runner, a report scheduler) can tell
    "nothing to analyze yet" apart from genuine programming errors while
    existing ``except ValueError`` callers keep working.
    """


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level configuration.

    Attributes:
        pipeline: analytical-pipeline parameters.
        cost: economic constants for the report's cost section.
        rotation_hz: nominal machine rotation frequency; when set, the
            engine also runs the spectral fault diagnoser per pump (None
            disables diagnosis).
        diagnosis_window: number of most recent valid measurements whose
            mean PSD feeds each pump's diagnosis.
        max_workers: thread count for the transform tiles; None
            auto-sizes, 0/1 forces serial.  The per-pump RUL and
            diagnosis chains run in line.  Results are bit-identical at
            every count.
        checkpoint_dir: optional directory for the row journal, the
            row memo on disk; when set, runs journal every row they
            transform and recall every journaled row, so a run resumes
            bit-identically after a crash.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    cost: CostModel = field(default_factory=CostModel)
    rotation_hz: float | None = None
    diagnosis_window: int = 10
    max_workers: int | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.rotation_hz is not None and self.rotation_hz <= 0:
            raise ValueError("rotation_hz must be positive")
        if self.diagnosis_window < 1:
            raise ValueError("diagnosis_window must be positive")
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError("max_workers must be non-negative")


@dataclass
class DataHealth:
    """Accounting of measurements the engine could not analyze.

    Attributes:
        total_retrieved: measurements the retrieval API returned for the
            period (after majority-``K`` stacking but before the
            finite-value quarantine).
        analyzed: measurements that actually entered the pipeline.
        quarantined_nonfinite: pump id → measurements quarantined for
            containing NaN/Inf samples.
        dropped_incomplete: pump id → measurements dropped for not
            matching the majority block length ``K``.
        dead_letters: upstream dead-letter records associated with this
            run (transport/gateway quarantine; filled in by the caller
            that owns the dead-letter queue).
        corrupt_blobs: pump id → stored rows quarantined for a BLOB
            checksum mismatch (at-rest corruption caught on decode).
    """

    total_retrieved: int
    analyzed: int
    quarantined_nonfinite: dict[int, int] = field(default_factory=dict)
    dropped_incomplete: dict[int, int] = field(default_factory=dict)
    dead_letters: int = 0
    corrupt_blobs: dict[int, int] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        return sum(self.quarantined_nonfinite.values())

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped_incomplete.values())

    @property
    def n_corrupt(self) -> int:
        return sum(self.corrupt_blobs.values())

    @property
    def has_issues(self) -> bool:
        return bool(
            self.n_quarantined or self.n_dropped or self.dead_letters or self.n_corrupt
        )


@dataclass
class AnalysisReport:
    """Everything one engine run produced.

    Attributes:
        pump_ids: pump id per analyzed measurement.
        measurement_ids: measurement id per analyzed measurement.
        service_days: service time per measurement.
        pipeline: full pipeline artifacts (features, zones, models, RUL).
        events: maintenance events inside the analysis period.
        wasted_rul: Table IV-style accounting of the recorded events.
        n_labels_used: how many valid expert labels trained the models.
        diagnoses: per-pump spectral fault diagnosis (empty when the
            engine was configured without a rotation frequency).
        data_health: quarantine / drop accounting for the run; ``None``
            only for reports built by legacy callers.
        supervision: fleet-supervision activity during this run (the
            per-run delta of the executor's cumulative tally); ``None``
            when the executor ran unsupervised.
    """

    pump_ids: np.ndarray
    measurement_ids: np.ndarray
    service_days: np.ndarray
    pipeline: PipelineResult
    events: list[MaintenanceEvent]
    wasted_rul: dict
    n_labels_used: int
    diagnoses: dict[int, Diagnosis] = field(default_factory=dict)
    data_health: DataHealth | None = None
    supervision: SupervisionReport | None = None

    @property
    def lifetime_models(self) -> list[LineModel]:
        return self.pipeline.lifetime_models

    @property
    def rul(self) -> dict[object, RULPrediction]:
        return self.pipeline.rul

    def zone_of(self, pump_id: int) -> str:
        """Latest predicted zone of one pump (``""`` when unknown)."""
        member = np.nonzero(self.pump_ids == pump_id)[0]
        if member.size == 0:
            return ""
        latest = member[np.argmax(self.service_days[member])]
        return str(self.pipeline.zones[latest])

    def summary_lines(self) -> list[str]:
        """Human-readable per-pump summary (the GUI's table view)."""
        lines = ["pump  zone  model  RUL(days)"]
        for pump in sorted(set(int(p) for p in self.pump_ids)):
            zone = self.zone_of(pump) or "?"
            prediction = self.rul.get(pump)
            if prediction is None:
                lines.append(f"{pump:>4}  {zone:>4}  {'-':>5}  {'-':>9}")
            else:
                lines.append(
                    f"{pump:>4}  {zone:>4}  {prediction.model_index + 1:>5}  "
                    f"{prediction.rul_days:>9.0f}"
                )
        return lines


def label_rows(
    pumps: np.ndarray, mids: np.ndarray, labels: list[LabelRecord]
) -> dict[int, str]:
    """Row index → zone of every label whose measurement is a row.

    Rows are matched on ``(pump_id, measurement_id)`` by one sorted
    lookup over dense ranks of both columns.  When a key occurs on
    several rows the label goes to the last one, and when several label
    records name one row the last record wins.
    """
    if not labels or not pumps.size:
        return {}
    label_pumps = np.fromiter((r.pump_id for r in labels), int, len(labels))
    label_mids = np.fromiter((r.measurement_id for r in labels), int, len(labels))
    _, pump_rank = np.unique(np.concatenate([pumps, label_pumps]), return_inverse=True)
    mid_values, mid_rank = np.unique(
        np.concatenate([mids, label_mids]), return_inverse=True
    )
    code = pump_rank * mid_values.size + mid_rank
    row_code, label_code = code[: pumps.size], code[pumps.size :]
    order = np.argsort(row_code, kind="stable")
    ordered = row_code[order]
    # The last row of each run of equal codes is the largest row index.
    slot = np.searchsorted(ordered, label_code, side="right") - 1
    found = (slot >= 0) & (ordered[np.maximum(slot, 0)] == label_code)
    train_labels: dict[int, str] = {}
    for label, row in zip(np.nonzero(found)[0].tolist(), order[slot[found]].tolist()):
        train_labels[row] = labels[label].zone
    return train_labels


class VibrationAnalysisEngine:
    """Orchestrates retrieval → pipeline → report for one analysis period."""

    def __init__(
        self,
        api: DataRetrievalAPI,
        config: EngineConfig | None = None,
        executor: FleetExecutor | None = None,
    ):
        """Create an engine.

        Args:
            api: period-scoped retrieval facade.
            config: engine configuration (defaults apply when None).
            executor: optional pre-built fleet executor for the
                pipeline — the chaos runner passes one carrying its fault
                injector; None builds a plain executor from
                ``config.max_workers``.
        """
        self.api = api
        self.config = config or EngineConfig()
        self.executor = executor
        self._pipeline: AnalysisPipeline | None = None

    def _make_pipeline(self) -> AnalysisPipeline:
        """The pipeline this engine runs, built on first use.

        Called once; :meth:`run` reuses the instance so its row memo —
        each row's transform outputs and harmonic peaks, keyed by the
        row's content — survives rolling-window advances: a refresh
        transforms, and extracts peaks for, only the measurements the
        previous run did not see.  With ``checkpoint_dir`` the memo
        starts from the journal's rows.
        """
        executor = self.executor or FleetExecutor(self.config.max_workers)
        journal = None
        if self.config.checkpoint_dir is not None:
            journal = RowJournal(self.config.checkpoint_dir)
        return AnalysisPipeline(
            self.config.pipeline, executor=executor, journal=journal
        )

    def run(self, profile: RuntimeProfile | None = None) -> AnalysisReport:
        """Analyze everything inside the API's current analysis period.

        Args:
            profile: optional :class:`~repro.runtime.profile.RuntimeProfile`
                collecting per-stage wall-clock timings (the ``--profile``
                CLI surface).

        Raises:
            InsufficientDataError: when the period holds no (finite)
                measurements or no valid labels survive into it (the
                pipeline needs labelled examples to learn its
                thresholds).  A :class:`ValueError` subclass, so legacy
                callers keep working.
        """
        if self._pipeline is None:
            self._pipeline = self._make_pipeline()
        pipeline = self._pipeline
        # Retrieval verifies every row and streams the rows the row memo
        # cannot serve into the transform as it decodes them; the memo
        # gathers the rest by key.  The exemplar reads the PSD of the
        # labelled Zone A rows, so the memo serves such a row only with
        # its PSD: a label added to a row seen without it decodes that
        # row in the same read.  A diagnosing run also keeps the PSD of
        # every row it transforms, until diagnosis has read its rows.
        diagnosing = self.config.rotation_hz is not None
        labels = self.api.get_labels()
        zones = {(r.pump_id, r.measurement_id): r.zone for r in labels}
        psd_pairs = {pair for pair, zone in zones.items() if zone == ZONE_A}
        # One supervision delta per run, closed after the diagnosis fan-out,
        # feeds both the report and the profile.
        sup_tally = pipeline.executor.supervision_report
        sup_before = sup_tally.as_dict() if sup_tally is not None else None
        with pipeline.stream(psd_pairs, profile, diagnosing) as stream:
            pumps, mids, service, keys, health, train_labels = self._retrieve(
                stream, labels, profile
            )
            features = stream.features(keys, zone_a_rows(train_labels))
        result = pipeline.analyze(pumps, service, features, train_labels, profile)

        events = self.api.get_events()
        wasted = self.config.cost.wasted_rul_value(events)
        diagnoses: dict[int, Diagnosis] = {}
        reread = 0
        if diagnosing:
            with profile.stage("diagnose") if profile is not None else nullcontext():
                healthy, recent = self._diagnosis_rows(pumps, service, result)
                read = np.concatenate([healthy, *(rows for _, rows in recent)])
                reread = self._reread_psd(pumps, mids, keys, read, pipeline)
                diagnoses = self._diagnose(healthy, recent, keys, result, pipeline)
                # The memo keeps the PSD of the rows diagnosis read and
                # of the labelled Zone A rows, which the exemplar reads.
                keep = read.tolist() + zone_a_rows(train_labels)
                pipeline.retain_psd([keys[i] for i in keep])
        if profile is not None:
            profile.count("psd_rows_kept", len(pipeline.psd_keys))
            profile.count("psd_rows_reread", reread)
        supervision = None
        if sup_tally is not None:
            sup_after = sup_tally.as_dict()
            delta = {key: sup_after[key] - sup_before[key] for key in sup_after}
            supervision = SupervisionReport(**delta)
            if profile is not None:
                profile.add_supervision(delta)
        return AnalysisReport(
            pump_ids=pumps,
            measurement_ids=mids,
            service_days=service,
            pipeline=result,
            events=events,
            wasted_rul=wasted,
            n_labels_used=len(train_labels),
            diagnoses=diagnoses,
            data_health=health,
            supervision=supervision,
        )

    def _retrieve(
        self,
        stream,
        labels: list[LabelRecord],
        profile: RuntimeProfile | None,
    ) -> tuple:
        """Read the window into ``stream``, the pipeline's row stream.

        Returns ``(pumps, mids, service, keys, health, train_labels)``
        after the non-finite quarantine and the join of ``labels``.

        Raises:
            InsufficientDataError: as :meth:`run`.
        """
        self.api.sink = stream
        try:
            window = self.api.measurement_matrices_with_health()
        finally:
            self.api.sink = None
        pumps, mids, service = window[:3]
        keys = window.row_keys
        total_retrieved = int(pumps.size)
        if profile is not None:
            # Kept, dropped and quarantined rows: every row whose BLOB
            # retrieval read.  All were CRC-checked except legacy rows
            # stored without a checksum, which are counted too.
            profile.count(
                "rows_verified",
                total_retrieved
                + sum(window.dropped_incomplete.values())
                + sum(window.corrupt.values()),
            )
            profile.count("rows_decoded", len(window.decoded))
        if pumps.size == 0:
            raise InsufficientDataError("analysis period contains no measurements")

        # Quarantine non-finite blocks (corrupted uploads, poisoned
        # storage reads) instead of letting them fail the whole run: the
        # transform skipped them.  Only decoded rows can be among them: a
        # memo-known row's key is its content, which was finite when the
        # memo took it.
        nonfinite = stream.nonfinite
        quarantined_nonfinite: dict[int, int] = {}
        if nonfinite.size:
            for pump in pumps[nonfinite].tolist():
                quarantined_nonfinite[pump] = quarantined_nonfinite.get(pump, 0) + 1
            keep = np.ones(pumps.size, dtype=bool)
            keep[nonfinite] = False
            pumps = pumps[keep]
            mids = mids[keep]
            service = service[keep]
            keys = [key for key, ok in zip(keys, keep.tolist()) if ok]
        if pumps.size == 0:
            raise InsufficientDataError(
                "analysis period contains no finite measurements"
            )
        health = DataHealth(
            total_retrieved=total_retrieved,
            analyzed=int(pumps.size),
            quarantined_nonfinite=quarantined_nonfinite,
            dropped_incomplete=window.dropped_incomplete,
            corrupt_blobs=window.corrupt,
        )

        # Map stored labels onto the retrieved measurement ordering
        # (after the quarantine, so indices address surviving rows).
        train_labels = label_rows(pumps, mids, labels)
        if not train_labels:
            raise InsufficientDataError(
                "no valid labels fall inside the analysis period"
            )
        return pumps, mids, service, keys, health, train_labels

    def _diagnosis_rows(
        self, pumps: np.ndarray, service: np.ndarray, result: PipelineResult
    ) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
        """The rows diagnosis reads: the valid rows classified Zone A (the
        baseline), and per pump its last ``diagnosis_window`` valid rows
        by service time; none when no row is classified Zone A."""
        healthy = np.flatnonzero(result.valid_mask & (result.zones == ZONE_A))
        recent: list[tuple[int, np.ndarray]] = []
        if not healthy.size:
            return healthy, recent
        for pump in np.unique(pumps):
            member = np.nonzero((pumps == pump) & result.valid_mask)[0]
            if member.size:
                order = member[np.argsort(service[member])]
                recent.append((int(pump), order[-self.config.diagnosis_window :]))
        return healthy, recent

    def _reread_psd(
        self,
        pumps: np.ndarray,
        mids: np.ndarray,
        keys: list[bytes],
        rows: np.ndarray,
        pipeline: AnalysisPipeline,
    ) -> int:
        """Give the PSD memo every row of ``rows`` it lacks: a targeted,
        CRC-checked read of each by ``(pump_id, measurement_id)``,
        transformed again.  Returns the number of rows read.

        Raises:
            RuntimeError: naming a row stored anew since the window read.
        """
        missing: dict[bytes, int] = {}
        for i in rows.tolist():
            if keys[i] not in pipeline.psd_keys:
                missing.setdefault(keys[i], i)
        found = list(missing.items())
        for lo in range(0, len(found), STREAM_BATCH_ROWS):
            batch = found[lo : lo + STREAM_BATCH_ROWS]
            row_keys = [key for key, _ in batch]
            pairs = [(int(pumps[i]), int(mids[i])) for _, i in batch]
            pipeline.add_psd(row_keys, self.api.read_rows(pairs, row_keys))
        return len(found)

    def _diagnose(
        self,
        healthy: np.ndarray,
        recent: list[tuple[int, np.ndarray]],
        keys: list[bytes],
        result: PipelineResult,
        pipeline: AnalysisPipeline,
    ) -> dict[int, Diagnosis]:
        """Per-pump spectral diagnosis from the PSD memo's rows (see
        :meth:`_diagnosis_rows`); each mean PSD is summed in place."""
        if not healthy.size:
            return {}
        freqs = pipeline.frequencies(result.psd.shape[1])
        # Baseline from the measurements the classifier called Zone A.
        healthy_psd = pipeline.psd_mean([keys[i] for i in healthy])
        diagnoser = SpectralDiagnoser(self.config.rotation_hz)
        diagnoser.fit_baseline(extract_harmonic_peaks(healthy_psd, freqs))

        def diagnose_pump(mean_psd: np.ndarray) -> Diagnosis:
            return diagnoser.diagnose(extract_harmonic_peaks(mean_psd, freqs))

        items = [
            (pump, pipeline.psd_mean([keys[i] for i in rows])) for pump, rows in recent
        ]
        # map_pumps preserves the sorted submission order, so the report
        # iterates pumps in a stable order.
        return pipeline.executor.map_pumps(diagnose_pump, items)
