"""Scalar oracle of the Fig. 7 pipeline.

:func:`transform_reference` pushes one measurement at a time through the
scalar feature helpers, and :class:`ReferencePipeline` runs the whole
workflow with the scalar :class:`~repro.core.classify.PeakHarmonicFeature`
and a serial per-pump RUL loop.  The production
:class:`~repro.core.pipeline.AnalysisPipeline` must return bit-identical
results.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ZoneClassifier
from repro.core.features import measurement_offsets, psd_feature, psd_frequencies, rms_feature
from repro.core.outliers import detect_invalid_measurements
from repro.core.peaks import PackedPeaks, extract_harmonic_peaks
from repro.core.pipeline import PipelineConfig, PipelineResult, RowFeatures
from repro.core.ransac import RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average
from repro.runtime.fleet import FleetExecutor
from repro.storage.database import DenseRows


def transform_reference(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data transformation layer, one block at a time: ``(offsets, rms, psd)``.

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


def features_reference(
    samples: np.ndarray, config: PipelineConfig | None = None
) -> tuple[np.ndarray, ...]:
    """:func:`transform_reference` plus scalar per-row harmonic peaks.

    Returns the fields of :class:`~repro.core.pipeline.RowFeatures` in
    order — ``(offsets, rms, peak_frequencies, peak_values, peak_counts,
    psd, psd_rows)`` — with every row's PSD kept.
    """
    config = config or PipelineConfig()
    offsets, rms, psd = transform_reference(samples)
    freqs = psd_frequencies(psd.shape[1], config.sampling_rate_hz)
    peaks = peaks_reference(psd, freqs, config)
    return (
        offsets,
        rms,
        peaks.frequencies,
        peaks.values,
        peaks.counts,
        psd,
        np.arange(psd.shape[0]),
    )


def peaks_reference(
    psd: np.ndarray, freqs: np.ndarray, config: PipelineConfig | None = None
) -> PackedPeaks:
    """Scalar :func:`extract_harmonic_peaks` per PSD row, packed."""
    config = config or PipelineConfig()
    n, width = psd.shape[0], config.num_peaks
    frequencies, values = np.zeros((n, width)), np.zeros((n, width))
    counts = np.zeros(n, dtype=np.intp)
    for i, row in enumerate(psd):
        peaks = extract_harmonic_peaks(
            row, freqs, num_peaks=width, window_size=config.peak_window_size
        )
        counts[i] = len(peaks)
        frequencies[i, : counts[i]] = peaks.frequencies
        values[i, : counts[i]] = peaks.values
    return PackedPeaks(frequencies, values, counts)


class ReferenceStream(DenseRows):
    """The oracle's row stream: every row decoded into one dense matrix.

    Non-finite rows are found by a per-row ``isfinite`` over the whole
    matrix, and :meth:`features` runs :func:`features_reference` over the
    other rows, keeping every row's PSD, which the pipeline then holds
    by row key.
    """

    def __init__(self, pipeline: "ReferencePipeline"):
        super().__init__()
        self.pipeline = pipeline
        self.config = pipeline.config

    def __enter__(self) -> "ReferenceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    @property
    def nonfinite(self) -> np.ndarray:
        return np.flatnonzero(~np.isfinite(self.samples).all(axis=(1, 2)))

    def features(self, keys, psd_rows=None) -> RowFeatures:
        blocks = np.delete(self.samples, self.nonfinite, axis=0)
        if blocks.shape[0] != len(keys):
            raise ValueError("row keys and streamed rows must align")
        features = RowFeatures(*features_reference(blocks, self.config))
        self.pipeline.psd_by_key = dict(zip(keys, features.psd))
        return features


class ReferencePipeline:
    """The scalar Fig. 7 workflow over in-memory measurement arrays.

    ``run``, ``stream`` and ``analyze`` take the production signatures
    (``profile``, ``row_keys``, ``psd_ids`` and ``keep_new_psd`` are
    accepted and ignored: every row's PSD is kept) and ``executor`` is a
    serial one, so :class:`~tests.reference.engine.ReferenceEngine` can
    drive it exactly like the production pipeline.  It has no row memo:
    its :class:`ReferenceStream` decodes every row, and the last
    stream's PSD rows, by row key, serve :meth:`psd_mean` as a gathered
    ``.mean(axis=0)``.
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.executor = FleetExecutor(max_workers=1)
        self.psd_by_key: dict[bytes, np.ndarray] = {}

    @property
    def psd_keys(self):
        return self.psd_by_key.keys()

    def psd_mean(self, keys) -> np.ndarray:
        return np.stack([self.psd_by_key[key] for key in keys]).mean(axis=0)

    def retain_psd(self, keys) -> None:
        pass

    def preprocess(
        self,
        pump_ids: np.ndarray,
        offsets: np.ndarray,
        service_days: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-sensor-epoch invalid-measurement mask (True = valid)."""
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
        return psd_frequencies(num_bins, self.config.sampling_rate_hz)

    def stream(self, psd_ids=None, profile=None, keep_new_psd=False) -> ReferenceStream:
        return ReferenceStream(self)

    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile=None,
        row_keys=None,
    ) -> PipelineResult:
        blocks = np.asarray(samples, dtype=np.float64)
        features = RowFeatures(*features_reference(blocks, self.config))
        return self.analyze(pump_ids, service_days, features, train_labels)

    def analyze(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        features: RowFeatures,
        train_labels: dict[int, str],
        profile=None,
    ) -> PipelineResult:
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        n = ids.shape[0]
        if days.shape[0] != n or features.offsets.shape[0] != n:
            raise ValueError("pump_ids, service_days and samples must align")
        if not train_labels:
            raise ValueError("train_labels must not be empty")
        bad_idx = [i for i in train_labels if not 0 <= i < n]
        if bad_idx:
            raise ValueError(f"train_labels reference invalid indices: {bad_idx}")

        offsets, rms, psd = features.offsets, features.rms, features.psd
        valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(psd.shape[1])

        train_idx = np.asarray(
            [i for i in sorted(train_labels) if valid[i]], dtype=np.intp
        )
        if train_idx.size == 0:
            raise ValueError("all labelled measurements were flagged invalid")
        labels = np.asarray([train_labels[int(i)] for i in train_idx], dtype=object)
        classifier = ZoneClassifier()
        classifier.fit(psd[train_idx], labels, freqs)

        valid_idx = np.nonzero(valid)[0]
        da = np.full(n, np.nan)
        da[valid_idx] = classifier.decision_scores(psd[valid_idx], freqs)
        if self.config.moving_average_window > 1:
            for pump in np.unique(ids):
                member = np.nonzero((ids == pump) & valid)[0]
                member = member[np.argsort(days[member], kind="stable")]
                if member.size:
                    da[member] = moving_average(
                        da[member], self.config.moving_average_window
                    )

        zones = np.full(n, "", dtype=object)
        zones[valid_idx] = classifier.classifier.predict(da[valid_idx])

        zone_d_threshold = learn_zone_d_threshold(da[train_idx], labels)
        estimator = RULEstimator(
            zone_d_threshold,
            RecursiveRANSAC(
                residual_threshold=self.config.ransac_residual_threshold,
                min_inliers=self.config.ransac_min_inliers,
                seed=self.config.ransac_seed,
            ),
        )
        estimator.fit(days[valid_idx], da[valid_idx])

        rul: dict[object, RULPrediction] = {}
        if estimator.n_models:
            for pump in np.unique(ids):
                member = np.nonzero((ids == pump) & valid)[0]
                if member.size:
                    rul[pump] = estimator.predict(days[member], da[member])

        thresholds = classifier.thresholds_
        return PipelineResult(
            valid_mask=valid,
            offsets=offsets,
            rms=rms,
            peaks=features.peaks,
            psd=psd,
            psd_rows=np.arange(n),
            da=da,
            zones=zones,
            zone_thresholds=thresholds if thresholds is not None else np.empty(0),
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
        )
