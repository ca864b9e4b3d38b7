"""The layered analytical workflow of Fig. 7, as a pure-numpy pipeline.

The pipeline mirrors the paper's layer stack:

* **data transformation** — raw acceleration blocks to physical features
  (per-measurement offsets, RMS, DCT-based PSD);
* **data preprocessing** — mean-shift outlier detection on acceleration
  averages per sensor, moving-average denoising of the degradation-feature
  time series, and construction of the dense matrices used downstream;
* **feature matrix extraction** — harmonic peak features and the peak
  harmonic distance ``D_a`` from a Zone A exemplar; each row's peaks are
  memoized with its transform outputs, keyed by the row's content;
* **RUL model layer** — zone classification thresholds, recursive-RANSAC
  lifetime models and per-pump RUL predictions.

Inputs are plain arrays so the pipeline is independent of the storage
layer; ``repro.analysis.engine`` binds it to the database-backed retrieval
API.  Every layer runs through the batched kernels of
:mod:`repro.runtime.batch` and the per-pump RUL chains fan out across a
:class:`~repro.runtime.fleet.FleetExecutor`; the results are bit-identical
to the scalar per-row oracle in ``tests/reference/`` (DESIGN.md, "The
bit-identity contract").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import ZONE_A, OrderedThresholdClassifier, PeakHarmonicFeature
from repro.core.distance import packed_harmonic_distances
from repro.core.features import psd_frequencies
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.peaks import (
    DEFAULT_NUM_PEAKS,
    DEFAULT_WINDOW_SIZE,
    HarmonicPeaks,
    PackedPeaks,
    extract_harmonic_peaks_batch,
)
from repro.core.ransac import LineModel, RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average
from repro.runtime.batch import DEFAULT_CHUNK_ROWS, transform_rows
from repro.runtime.cache import row_digests
from repro.runtime.fleet import FleetExecutor
from repro.runtime.profile import RuntimeProfile


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

    def __post_init__(self) -> None:
        if self.moving_average_window < 1:
            raise ValueError("moving_average_window must be positive")


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
    """Fig. 7 workflow over in-memory measurement arrays.

    Args:
        config: analytical parameters (defaults apply when None).
        executor: fleet executor for the per-pump RUL fan-out and the
            process-parallel transform; a default thread pool when None.
        chunk_rows: rows per transform chunk, the checkpoint journal's
            unit.
        checkpoint: optional :class:`~repro.runtime.checkpoint.CheckpointManager`;
            when armed, every completed transform chunk is journaled and
            recalled on resume.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: FleetExecutor | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        checkpoint=None,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self.config = config or PipelineConfig()
        self.executor = executor if executor is not None else FleetExecutor()
        self.chunk_rows = chunk_rows
        self.checkpoint = checkpoint
        self.estimator_: RULEstimator | None = None
        #: Row memo of the last :meth:`transform` call: row digest →
        #: row index into that call's frozen ``(offsets, rms, psd)`` and
        #: its peak rows ``(frequencies, values, counts, extracted)``,
        #: which :meth:`run` fills in for the valid rows it scores.
        self._memo_rows: dict[bytes, int] = {}
        self._memo_outputs: tuple[np.ndarray, ...] = ()
        self._memo_peaks: tuple[np.ndarray, ...] = ()
        #: Rows recalled from / missing in the row memo, cumulative.
        self.transform_hits = 0
        self.transform_misses = 0
        #: Valid rows whose peaks were recalled / extracted, cumulative.
        self.peak_hits = 0
        self.peak_misses = 0

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def transform(
        self, samples: np.ndarray, profile: RuntimeProfile | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data transformation layer: ``(offsets, rms, psd)`` per block.

        Rows are memoized by content.  Each row is digested once
        (:func:`~repro.runtime.cache.row_digests`); a row the previous
        call also saw is gathered from that call's frozen result
        matrices, and only the other rows — compacted — go through
        :func:`~repro.runtime.batch.transform_rows`.  A rolling-window
        refresh therefore transforms just its new tail.  Every transform
        op is row-local, so gathered and recomputed rows are
        bit-identical to a cold run.  The memo holds the last call's
        outputs only, and those are the arrays this call returns:
        read-only, so no alias can change a memoized row.  A recalled
        row also brings back its harmonic peaks, if a :meth:`run` has
        extracted them.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``.
            profile: optional collector for the ``transform`` stage; its
                item count is the rows actually transformed.
        """
        start = time.perf_counter()
        blocks = np.asarray(samples, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        n, k = blocks.shape[0], blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        digests = row_digests(blocks)
        width = self.config.num_peaks
        peaks = (
            np.zeros((n, width)),
            np.zeros((n, width)),
            np.zeros(n, dtype=np.intp),
            np.zeros(n, dtype=bool),
        )
        seen = self._memo_rows
        hit: list[int] = []
        source: list[int] = []
        miss: list[int] = []
        for row, digest in enumerate(digests):
            index = seen.get(digest)
            if index is None:
                miss.append(row)
            else:
                hit.append(row)
                source.append(index)
        if hit:
            outputs = (np.empty((n, 3)), np.empty(n), np.empty((n, k)))
            for out, previous in zip(
                outputs + peaks, self._memo_outputs + self._memo_peaks
            ):
                out[hit] = previous[source]
            computed = 0
            if miss:
                *fresh, computed = transform_rows(
                    blocks[miss], self.chunk_rows, self.executor, self.checkpoint
                )
                for out, rows in zip(outputs, fresh):
                    out[miss] = rows
        else:
            *outputs, computed = transform_rows(
                blocks, self.chunk_rows, self.executor, self.checkpoint
            )
        for out in outputs:
            out.setflags(write=False)
        self._memo_rows = dict(zip(digests, range(n)))
        self._memo_outputs = tuple(outputs)
        self._memo_peaks = peaks
        self.transform_hits += len(hit)
        self.transform_misses += len(miss)
        if profile is not None:
            profile.add("transform", time.perf_counter() - start, computed)
        return self._memo_outputs

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
    # End-to-end run.
    # ------------------------------------------------------------------
    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
    ) -> PipelineResult:
        """Execute the full workflow.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g.
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).
            profile: optional collector of per-stage wall-clock timings
                and cache, checkpoint, executor and supervision counters.

        Returns:
            PipelineResult with every layer's artifacts.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        blocks = np.asarray(samples, dtype=np.float64)
        n = ids.shape[0]
        if days.shape[0] != n or blocks.shape[0] != n:
            raise ValueError("pump_ids, service_days and samples must align")
        if not train_labels:
            raise ValueError("train_labels must not be empty")
        bad_idx = [i for i in train_labels if not 0 <= i < n]
        if bad_idx:
            raise ValueError(f"train_labels reference invalid indices: {bad_idx}")
        profile = profile if profile is not None else RuntimeProfile()
        tallies = self._tallies()
        supervision = self.executor.supervision_report
        supervision_before = supervision.as_dict() if supervision is not None else None

        offsets, rms, psd = self.transform(blocks, profile)

        with profile.stage("preprocess", n):
            valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(psd.shape[1])
        valid_idx = np.nonzero(valid)[0]

        with profile.stage("fit_classifier", len(train_labels)):
            train_idx = np.asarray(
                [i for i in sorted(train_labels) if valid[i]], dtype=np.intp
            )
            if train_idx.size == 0:
                raise ValueError("all labelled measurements were flagged invalid")
            labels = np.asarray([train_labels[int(i)] for i in train_idx], dtype=object)
            reference = train_idx[labels == ZONE_A]
            if reference.size == 0:
                raise ValueError(f"no {ZONE_A!r} samples to build the baseline")
            exemplar = PeakHarmonicFeature(
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            ).fit(psd[reference], freqs).baseline_

        with profile.stage("score_da", int(valid_idx.size)):
            da = np.full(n, np.nan)
            da[valid_idx] = self._score_da(valid_idx, freqs, exemplar)
            train_da = da[train_idx]
            if self.config.moving_average_window > 1:
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    member = member[np.argsort(days[member], kind="stable")]
                    if member.size:
                        da[member] = moving_average(
                            da[member], self.config.moving_average_window
                        )

        # The zone thresholds are fitted on the raw (pre-smoothing) D_a.
        with profile.stage("fit_classifier"):
            classifier = OrderedThresholdClassifier().fit(train_da, labels)

        with profile.stage("classify_zones", int(valid_idx.size)):
            zones = np.full(n, "", dtype=object)
            zones[valid_idx] = classifier.predict(da[valid_idx])

        # The RUL model layer is two distinct costs worth separating in a
        # profile: the exact KDE threshold scan over the labelled records
        # and the batched recursive-RANSAC fit over the whole fleet.
        with profile.stage("learn_threshold", int(len(labels))):
            zone_d_threshold = learn_zone_d_threshold(da[train_idx], labels)
        with profile.stage("fit_lifetime_models", int(valid_idx.size)):
            estimator = RULEstimator(
                zone_d_threshold,
                RecursiveRANSAC(
                    residual_threshold=self.config.ransac_residual_threshold,
                    min_inliers=self.config.ransac_min_inliers,
                    seed=self.config.ransac_seed,
                ),
            )
            estimator.fit(days[valid_idx], da[valid_idx])
            self.estimator_ = estimator
        with profile.stage("predict_rul", int(np.unique(ids).size)):
            # Work items are built in np.unique(ids) order and map_pumps
            # preserves submission order, so the dict iterates pumps in
            # sorted order whatever the executor's backend or width.
            rul: dict[object, RULPrediction] = {}
            if estimator.n_models:
                items = []
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    if member.size:
                        items.append((pump, days[member], da[member]))
                rul = self.executor.map_pumps(estimator.predict, items)

        for name, value in self._tallies().items():
            profile.count(name, value - tallies[name])
        profile.count("fleet_workers", self.executor.max_workers)
        if supervision is not None:
            now = supervision.as_dict()
            profile.add_supervision(
                {key: now[key] - supervision_before[key] for key in now}
            )

        return PipelineResult(
            valid_mask=valid,
            offsets=offsets,
            rms=rms,
            psd=psd,
            da=da,
            zones=zones,
            zone_thresholds=classifier.thresholds_,
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
        )

    def _score_da(
        self, rows: np.ndarray, freqs: np.ndarray, exemplar: HarmonicPeaks
    ) -> np.ndarray:
        """Raw ``D_a`` of ``rows`` of the last :meth:`transform` call.

        Peaks come from the row memo; the rows it lacks are extracted
        from the memo's PSD in one batched call and written back, so a
        later run recalls them.  The distances then run through the
        packed Algorithm 1 kernel in one call.  Padding every row to
        ``num_peaks`` columns leaves the kernel's output unchanged: it
        reads only each row's real peaks.
        """
        psd = self._memo_outputs[2]
        peak_freqs, peak_vals, counts, extracted = self._memo_peaks
        fresh = rows[~extracted[rows]]
        if fresh.size:
            packed = extract_harmonic_peaks_batch(
                psd[fresh],
                freqs,
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            )
            peak_freqs[fresh] = packed.frequencies
            peak_vals[fresh] = packed.values
            counts[fresh] = packed.counts
            extracted[fresh] = True
        self.peak_hits += rows.size - fresh.size
        self.peak_misses += fresh.size
        return packed_harmonic_distances(
            PackedPeaks(peak_freqs[rows], peak_vals[rows], counts[rows]), exemplar
        )

    def _tallies(self) -> dict[str, int]:
        """Cumulative cache and checkpoint counters, for per-run deltas."""
        tallies = {
            "peak_cache_hits": self.peak_hits,
            "peak_cache_misses": self.peak_misses,
            "transform_cache_hits": self.transform_hits,
            "transform_cache_misses": self.transform_misses,
        }
        if self.checkpoint is not None:
            tallies["checkpoint_hits"] = self.checkpoint.hits
            tallies["checkpoint_misses"] = self.checkpoint.misses
        return tallies
