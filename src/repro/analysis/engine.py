"""The end-to-end vibration analysis engine.

Binds the database-backed retrieval API (Fig. 7's bottom layer) to the
pure-array :class:`~repro.core.pipeline.AnalysisPipeline` and packages the
results — per-measurement zones, lifetime models, per-pump RUL and the
cost accounting — into a single report, the artifact the paper's GUI would
render for the fab manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cost import CostModel
from repro.core.classify import ZONE_A
from repro.core.diagnosis import Diagnosis, SpectralDiagnoser
from repro.core.peaks import extract_harmonic_peaks
from repro.core.pipeline import AnalysisPipeline, PipelineConfig, PipelineResult
from repro.core.ransac import LineModel
from repro.core.rul import RULPrediction
from repro.runtime.batch import DEFAULT_CHUNK_ROWS, finite_block_mask
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.fleet import FleetExecutor, SupervisionPolicy, SupervisionReport
from repro.runtime.profile import RuntimeProfile
from repro.storage.api import DataRetrievalAPI
from repro.storage.records import MaintenanceEvent


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
        max_workers: fleet-executor worker count for the per-pump RUL
            and diagnosis fan-out; None auto-sizes, 0/1 forces serial.
        executor_backend: ``"thread"`` (default) or ``"process"`` for
            the fleet executor and the transform fan-out.  A process
            request is honoured only for file-backed databases — worker
            processes cannot see an in-memory SQLite, so in-memory
            engines silently fall back to threads (results are
            bit-identical either way).
        supervision: optional
            :class:`~repro.runtime.fleet.SupervisionPolicy` arming the
            fleet executor's self-healing path (deadlines, bounded
            restarts, salvage).  Ignored when a pre-built executor is
            injected — the executor's own policy wins.
        checkpoint_dir: optional directory for the transform checkpoint
            journal; when set, runs record every completed transform
            chunk and resume bit-identically after a crash.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    cost: CostModel = field(default_factory=CostModel)
    rotation_hz: float | None = None
    diagnosis_window: int = 10
    max_workers: int | None = None
    executor_backend: str = "thread"
    supervision: SupervisionPolicy | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.rotation_hz is not None and self.rotation_hz <= 0:
            raise ValueError("rotation_hz must be positive")
        if self.diagnosis_window < 1:
            raise ValueError("diagnosis_window must be positive")
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        if self.executor_backend not in ("thread", "process"):
            raise ValueError(
                f"executor_backend must be 'thread' or 'process',"
                f" got {self.executor_backend!r}"
            )


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


class _DiagnosePump:
    """Picklable per-pump diagnosis task (a closure could not cross the
    process boundary, silently forcing the diagnosis fan-out onto the
    thread pool even under ``executor_backend="process"``)."""

    def __init__(self, diagnoser: SpectralDiagnoser, freqs: np.ndarray):
        self.diagnoser = diagnoser
        self.freqs = freqs

    def __call__(self, mean_psd: np.ndarray) -> Diagnosis:
        return self.diagnoser.diagnose(extract_harmonic_peaks(mean_psd, self.freqs))


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

    def _resolve_backend(self) -> str:
        """Honour a process-backend request only for file-backed DBs.

        Worker processes cannot reach an in-memory SQLite, so engines
        over in-memory databases keep the thread pool (the two backends
        produce bit-identical results — only throughput differs).
        """
        backend = self.config.executor_backend
        if backend == "process":
            database = getattr(self.api, "database", None)
            if database is not None and getattr(database, "in_memory", False):
                return "thread"
        return backend

    def _make_pipeline(self) -> AnalysisPipeline:
        """The pipeline this engine runs, built on first use.

        Called once; :meth:`run` reuses the instance so its row memo —
        each row's transform outputs and harmonic peaks, keyed by the
        row's content — survives rolling-window advances: a refresh
        transforms, and extracts peaks for, only the measurements the
        previous run did not see.
        """
        executor = self.executor or FleetExecutor(
            max_workers=self.config.max_workers,
            backend=self._resolve_backend(),
            supervision=self.config.supervision,
        )
        checkpoint = None
        if self.config.checkpoint_dir is not None:
            checkpoint = CheckpointManager(
                self.config.checkpoint_dir,
                run_key=f"transform-v1:chunk_rows={DEFAULT_CHUNK_ROWS}",
            )
        return AnalysisPipeline(
            self.config.pipeline, executor=executor, checkpoint=checkpoint
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
        matrices = self.api.measurement_matrices_with_health()
        pumps, mids, service, samples, dropped_incomplete, corrupt_blobs = matrices
        total_retrieved = int(pumps.size)
        if pumps.size == 0:
            raise InsufficientDataError("analysis period contains no measurements")

        # Quarantine non-finite blocks (corrupted uploads, poisoned
        # storage reads) instead of letting them fail the whole run.
        finite = finite_block_mask(samples)
        quarantined_nonfinite: dict[int, int] = {}
        if not finite.all():
            for pump in pumps[~finite]:
                pump = int(pump)
                quarantined_nonfinite[pump] = quarantined_nonfinite.get(pump, 0) + 1
            pumps = pumps[finite]
            mids = mids[finite]
            service = service[finite]
            samples = samples[finite]
        if pumps.size == 0:
            raise InsufficientDataError(
                "analysis period contains no finite measurements"
            )
        health = DataHealth(
            total_retrieved=total_retrieved,
            analyzed=int(pumps.size),
            quarantined_nonfinite=quarantined_nonfinite,
            dropped_incomplete=dropped_incomplete,
            corrupt_blobs=corrupt_blobs,
        )

        # Map stored labels onto the retrieved measurement ordering
        # (after the quarantine, so indices address surviving rows).
        position = {
            (int(p), int(m)): idx for idx, (p, m) in enumerate(zip(pumps, mids))
        }
        train_labels: dict[int, str] = {}
        for record in self.api.get_labels():
            idx = position.get((record.pump_id, record.measurement_id))
            if idx is not None:
                train_labels[idx] = record.zone
        if not train_labels:
            raise InsufficientDataError(
                "no valid labels fall inside the analysis period"
            )

        if self._pipeline is None:
            self._pipeline = self._make_pipeline()
        pipeline = self._pipeline
        sup_tally = pipeline.executor.supervision_report
        sup_before = sup_tally.as_dict() if sup_tally is not None else None
        result = pipeline.run(pumps, service, samples, train_labels, profile=profile)

        events = self.api.get_events()
        wasted = self.config.cost.wasted_rul_value(events)
        if profile is not None:
            with profile.stage("diagnose"):
                diagnoses = self._diagnose(pumps, service, result, pipeline)
        else:
            diagnoses = self._diagnose(pumps, service, result, pipeline)
        supervision = None
        if sup_tally is not None:
            sup_after = sup_tally.as_dict()
            supervision = SupervisionReport(
                **{key: sup_after[key] - sup_before[key] for key in sup_after}
            )
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

    def _diagnose(
        self,
        pumps: np.ndarray,
        service: np.ndarray,
        result: PipelineResult,
        pipeline: AnalysisPipeline,
    ) -> dict[int, Diagnosis]:
        """Per-pump spectral diagnosis from recent valid measurements."""
        if self.config.rotation_hz is None:
            return {}
        freqs = pipeline.frequencies(result.psd.shape[1])
        # Baseline from the measurements the classifier called Zone A.
        healthy = result.valid_mask & (result.zones == ZONE_A)
        if not healthy.any():
            return {}
        healthy_psd = result.psd[healthy].mean(axis=0)
        diagnoser = SpectralDiagnoser(self.config.rotation_hz)
        diagnoser.fit_baseline(extract_harmonic_peaks(healthy_psd, freqs))

        window = max(1, self.config.diagnosis_window)
        diagnose_pump = _DiagnosePump(diagnoser, freqs)

        items: list[tuple[int, np.ndarray]] = []
        for pump in np.unique(pumps):
            member = np.nonzero((pumps == pump) & result.valid_mask)[0]
            if member.size == 0:
                continue
            recent = member[np.argsort(service[member])][-window:]
            items.append((int(pump), result.psd[recent].mean(axis=0)))

        # map_pumps preserves the sorted submission order, so the report
        # iterates pumps identically whatever the executor's width.
        return pipeline.executor.map_pumps(diagnose_pump, items)
