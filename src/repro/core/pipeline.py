"""The layered analytical workflow of Fig. 7, as a pure-numpy pipeline.

The pipeline mirrors the paper's layer stack:

* **data transformation** — raw acceleration blocks to physical features
  (per-measurement offsets, RMS, DCT-based PSD);
* **data preprocessing** — mean-shift outlier detection on acceleration
  averages per sensor, moving-average denoising of the degradation-feature
  time series, and construction of the dense matrices used downstream;
* **feature matrix extraction** — harmonic peak features and the peak
  harmonic distance ``D_a`` from a Zone A exemplar;
* **RUL model layer** — zone classification thresholds, recursive-RANSAC
  lifetime models and per-pump RUL predictions.

Inputs are plain arrays so the pipeline is independent of the storage
layer; ``repro.analysis.engine`` binds it to the database-backed retrieval
API.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import ZoneClassifier
from repro.core.features import measurement_offsets, psd_feature, psd_frequencies, rms_feature
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.peaks import DEFAULT_NUM_PEAKS, DEFAULT_WINDOW_SIZE
from repro.core.ransac import LineModel, RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of the analytical workflow.

    Attributes:
        sampling_rate_hz: sensor sampling rate for PSD bin frequencies.
        num_peaks: ``n_p`` of the harmonic peak extraction.
        peak_window_size: ``n_h`` Hann smoothing window.
        moving_average_window: trailing window (in measurements) applied
            to each pump's ``D_a`` series; 1 disables smoothing.  The
            paper defaults to one day of measurements.
        outlier: invalid-measurement detection configuration.
        ransac_min_inliers: minimum support for a lifetime model.
        ransac_residual_threshold: inlier band for lifetime models; None
            derives it from the data.
        ransac_seed: RNG seed for reproducible model discovery.
    """

    sampling_rate_hz: float = 4000.0
    num_peaks: int = DEFAULT_NUM_PEAKS
    peak_window_size: int = DEFAULT_WINDOW_SIZE
    moving_average_window: int = 1
    outlier: OutlierConfig = field(default_factory=OutlierConfig)
    ransac_min_inliers: int = 30
    ransac_residual_threshold: float | None = None
    ransac_seed: int = 0


@dataclass
class PipelineResult:
    """All artifacts produced by one pipeline run.

    Attributes:
        valid_mask: per-measurement validity after outlier detection.
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        psd: ``(n, K)`` PSD feature matrix.
        da: ``(n,)`` peak harmonic distance from the Zone A exemplar
            (NaN for invalid measurements).
        zones: predicted zone label per measurement (``""`` for invalid).
        zone_thresholds: learned ``D_a`` boundaries between ordered zones.
        zone_d_threshold: hazard boundary used by the RUL layer.
        lifetime_models: population models discovered by recursive RANSAC.
        rul: per-pump RUL predictions.
    """

    valid_mask: np.ndarray
    offsets: np.ndarray
    rms: np.ndarray
    psd: np.ndarray
    da: np.ndarray
    zones: np.ndarray
    zone_thresholds: np.ndarray
    zone_d_threshold: float
    lifetime_models: list[LineModel]
    rul: dict[object, RULPrediction]


class AnalysisPipeline:
    """Fig. 7 workflow over in-memory measurement arrays."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.classifier_: ZoneClassifier | None = None
        self.estimator_: RULEstimator | None = None

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def transform(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data transformation layer: ``(offsets, rms, psd)`` per block.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``.
        """
        blocks = np.asarray(samples, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        offsets = np.stack([measurement_offsets(b) for b in blocks])
        rms = np.asarray([rms_feature(b) for b in blocks])
        psd = np.stack([psd_feature(b) for b in blocks])
        return offsets, rms, psd

    def preprocess(
        self,
        pump_ids: np.ndarray,
        offsets: np.ndarray,
        service_days: np.ndarray | None = None,
    ) -> np.ndarray:
        """Preprocessing layer: per-sensor invalid-measurement mask.

        Outlier detection runs per sensor *epoch*: a pump replacement
        installs a fresh sensor with a new mounting orientation, so each
        stretch of monotonically increasing service time is clustered on
        its own (a legitimate offset change at replacement must not
        poison the new sensor's regime).

        Returns a boolean mask where True marks a *valid* measurement.
        """
        ids = np.asarray(pump_ids)
        valid = np.ones(ids.shape[0], dtype=bool)
        for pump in np.unique(ids):
            member_idx = np.nonzero(ids == pump)[0]
            if service_days is None:
                epochs = [member_idx]
            else:
                days = np.asarray(service_days, dtype=np.float64)[member_idx]
                resets = np.nonzero(np.diff(days) < 0)[0] + 1
                epochs = np.split(member_idx, resets)
            for epoch in epochs:
                if epoch.size == 0:
                    continue
                invalid = detect_invalid_measurements(
                    offsets[epoch], self.config.outlier
                )
                valid[epoch[invalid]] = False
        return valid

    def frequencies(self, num_bins: int) -> np.ndarray:
        """PSD bin frequencies for the configured sampling rate."""
        return psd_frequencies(num_bins, self.config.sampling_rate_hz)

    # ------------------------------------------------------------------
    # Overridable stage implementations.  The batched runtime
    # (repro.runtime.batch.BatchPipeline) subclasses this pipeline and
    # swaps individual stages for vectorized kernels; everything the two
    # paths share — orchestration, validation, the RUL layer — lives in
    # these methods so the scalar path stays the reference
    # implementation of record.
    # ------------------------------------------------------------------
    def _stage(self, name: str, items: int = 0):
        """Stage context hook; the batch runtime overrides it to profile.

        The base pipeline does no instrumentation, so the orchestration
        below can wrap every stage unconditionally at zero cost here.
        """
        return nullcontext()

    def _validate_inputs(
        self,
        ids: np.ndarray,
        days: np.ndarray,
        blocks: np.ndarray,
        train_labels: dict[int, str],
    ) -> None:
        n = ids.shape[0]
        if days.shape[0] != n or blocks.shape[0] != n:
            raise ValueError("pump_ids, service_days and samples must align")
        if not train_labels:
            raise ValueError("train_labels must not be empty")
        bad_idx = [i for i in train_labels if not 0 <= i < n]
        if bad_idx:
            raise ValueError(f"train_labels reference invalid indices: {bad_idx}")

    def _make_classifier(self) -> ZoneClassifier:
        """Zone classifier factory (the batch path plugs in its feature)."""
        return ZoneClassifier()

    def _fit_classifier(
        self,
        psd: np.ndarray,
        valid: np.ndarray,
        train_labels: dict[int, str],
        freqs: np.ndarray,
    ) -> tuple[ZoneClassifier, np.ndarray, np.ndarray]:
        """Train the zone classifier on the labelled, valid measurements."""
        train_idx = np.asarray(
            [i for i in sorted(train_labels) if valid[i]], dtype=np.intp
        )
        if train_idx.size == 0:
            raise ValueError("all labelled measurements were flagged invalid")
        labels = np.asarray([train_labels[int(i)] for i in train_idx], dtype=object)
        classifier = self._make_classifier()
        classifier.fit(psd[train_idx], labels, freqs)
        self.classifier_ = classifier
        return classifier, train_idx, labels

    def _score_da(
        self,
        classifier: ZoneClassifier,
        psd: np.ndarray,
        valid: np.ndarray,
        ids: np.ndarray,
        days: np.ndarray,
        freqs: np.ndarray,
    ) -> np.ndarray:
        """D_a for all valid measurements, with optional per-pump smoothing."""
        da = np.full(ids.shape[0], np.nan)
        valid_idx = np.nonzero(valid)[0]
        da[valid_idx] = classifier.decision_scores(psd[valid_idx], freqs)
        if self.config.moving_average_window > 1:
            for pump in np.unique(ids):
                member = np.nonzero((ids == pump) & valid)[0]
                member = member[np.argsort(days[member], kind="stable")]
                if member.size:
                    da[member] = moving_average(
                        da[member], self.config.moving_average_window
                    )
        return da

    def _learn_threshold(self, train_da: np.ndarray, labels: np.ndarray) -> float:
        """Hazard (Zone D) boundary learned from the training labels."""
        return learn_zone_d_threshold(train_da, labels)

    def _fit_lifetime_models(
        self,
        zone_d_threshold: float,
        days: np.ndarray,
        da: np.ndarray,
        valid: np.ndarray,
    ) -> RULEstimator:
        """Recursive-RANSAC lifetime models fitted on the pooled fleet."""
        estimator = RULEstimator(
            zone_d_threshold,
            RecursiveRANSAC(
                residual_threshold=self.config.ransac_residual_threshold,
                min_inliers=self.config.ransac_min_inliers,
                seed=self.config.ransac_seed,
            ),
        )
        valid_idx = np.nonzero(valid)[0]
        estimator.fit(days[valid_idx], da[valid_idx])
        self.estimator_ = estimator
        return estimator

    def _predict_rul(
        self,
        estimator: RULEstimator,
        ids: np.ndarray,
        days: np.ndarray,
        da: np.ndarray,
        valid: np.ndarray,
    ) -> dict[object, RULPrediction]:
        """Per-pump RUL predictions (the batch path fans this out)."""
        rul: dict[object, RULPrediction] = {}
        if estimator.n_models:
            for pump in np.unique(ids):
                member = np.nonzero((ids == pump) & valid)[0]
                if member.size:
                    rul[pump] = estimator.predict(days[member], da[member])
        return rul

    # ------------------------------------------------------------------
    # End-to-end run.
    # ------------------------------------------------------------------
    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
    ) -> PipelineResult:
        """Execute the full workflow.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g.
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).

        Returns:
            PipelineResult with every layer's artifacts.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        blocks = np.asarray(samples, dtype=np.float64)
        self._validate_inputs(ids, days, blocks, train_labels)
        n = ids.shape[0]

        # No stage wrapper here: the batch runtime times its transform
        # itself, because only it knows how many rows its row memo
        # actually sent through the DCT.
        offsets, rms, psd = self.transform(blocks)

        with self._stage("preprocess", n):
            valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(psd.shape[1])

        with self._stage("fit_classifier", len(train_labels)):
            classifier, train_idx, labels = self._fit_classifier(
                psd, valid, train_labels, freqs
            )
        valid_idx = np.nonzero(valid)[0]
        with self._stage("score_da", int(valid_idx.size)):
            da = self._score_da(classifier, psd, valid, ids, days, freqs)

        with self._stage("classify_zones", int(valid_idx.size)):
            zones = np.full(n, "", dtype=object)
            zones[valid_idx] = classifier.classifier.predict(da[valid_idx])

        # The RUL model layer is two distinct costs worth separating in a
        # profile: the exact KDE threshold scan over the labelled records
        # and the batched recursive-RANSAC fit over the whole fleet.
        with self._stage("learn_threshold", int(len(labels))):
            zone_d_threshold = self._learn_threshold(da[train_idx], labels)
        with self._stage("fit_lifetime_models", int(valid_idx.size)):
            estimator = self._fit_lifetime_models(zone_d_threshold, days, da, valid)
        with self._stage("predict_rul", int(np.unique(ids).size)):
            rul = self._predict_rul(estimator, ids, days, da, valid)

        thresholds = classifier.thresholds_
        return PipelineResult(
            valid_mask=valid,
            offsets=offsets,
            rms=rms,
            psd=psd,
            da=da,
            zones=zones,
            zone_thresholds=thresholds if thresholds is not None else np.empty(0),
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
        )
