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
from repro.runtime.batch import TRANSFORM_TILE_ROWS, run_tiles, transform_rows
from repro.runtime.cache import as_float, row_digests
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
        executor: fleet executor for the per-pump RUL fan-out; its
            worker count also sizes the threaded transform.  A default
            thread pool when None.
        journal: optional :class:`~repro.runtime.checkpoint.RowJournal`,
            the row memo on disk: the memo starts from its verified
            rows, and every row transformed is journaled.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: FleetExecutor | None = None,
        journal=None,
    ):
        self.config = config or PipelineConfig()
        self.executor = executor if executor is not None else FleetExecutor()
        self.journal = journal
        self.estimator_: RULEstimator | None = None
        #: Row memo of the last :meth:`transform` call (or the journal's
        #: rows, before the first): row digest → row index into frozen
        #: ``(offsets, rms, psd)`` and peak rows ``(frequencies, values,
        #: counts, extracted)``, which :meth:`run` fills in for the valid
        #: rows it scores.
        self._memo_rows: dict[bytes, int] = {}
        self._memo_outputs: tuple[np.ndarray, ...] = ()
        self._memo_peaks: tuple[np.ndarray, ...] = ()
        #: Rows recalled from the in-process memo / transformed, cumulative.
        self.transform_hits = 0
        self.transform_misses = 0
        #: Rows recalled from / written to the journal, cumulative.
        self.journal_hits = 0
        self.journal_misses = 0
        #: Valid rows whose peaks were recalled / extracted, cumulative.
        self.peak_hits = 0
        self.peak_misses = 0
        seed = journal.load() if journal is not None else None
        #: True while the memo holds the journal's rows, until the first
        #: transform: its hits are journal hits.
        self._memo_from_journal = seed is not None
        if seed is not None:
            keys, *outputs = seed
            self._remember(keys, outputs, self._empty_peaks(len(keys)))

    @property
    def memo_keys(self):
        """Row keys the row memo holds (a read-only view)."""
        return self._memo_rows.keys()

    def _empty_peaks(self, n: int) -> tuple[np.ndarray, ...]:
        width = self.config.num_peaks
        return (
            np.zeros((n, width)),
            np.zeros((n, width)),
            np.zeros(n, dtype=np.intp),
            np.zeros(n, dtype=bool),
        )

    def _remember(self, keys, outputs, peaks) -> None:
        """Make ``outputs`` (frozen) and ``peaks`` the row memo of ``keys``."""
        for out in outputs:
            out.setflags(write=False)
        self._memo_rows = dict(zip(keys, range(len(keys))))
        self._memo_outputs = tuple(outputs)
        self._memo_peaks = peaks

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def transform(
        self,
        samples: np.ndarray,
        profile: RuntimeProfile | None = None,
        row_keys: list[bytes] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data transformation layer: ``(offsets, rms, psd)`` per block.

        Rows are memoized by content.  Each row has one key: given in
        ``row_keys``, or else digested here
        (:func:`~repro.runtime.cache.row_digests`).  A row the previous
        call also saw is gathered from that call's frozen result
        matrices, and only the other rows — compacted — go through
        :func:`~repro.runtime.batch.transform_rows`.  A rolling-window
        refresh therefore transforms just its new tail.  Every transform
        op is row-local, so gathered and recomputed rows are
        bit-identical to a cold run.  The memo holds the last call's
        outputs only, and those are the arrays this call returns:
        read-only, so no alias can change a memoized row.  A recalled
        row also brings back its harmonic peaks, if a :meth:`run` has
        extracted them.  A pipeline with a journal starts from the
        journal's rows and journals every row it transforms.

        Float32 samples (the stored precision) and float64 samples are
        used as given — no whole-matrix upcast; each transform tile
        upcasts its own rows exactly — and any other dtype is cast to
        float64.  Row digests hash the rows in that dtype.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``; with
                ``row_keys``, only the rows whose key the memo lacks, in
                row order (``(0, K, 3)`` when it lacks none).
            profile: optional collector for the ``transform`` stage; its
                item count is the rows actually transformed.
            row_keys: optional row key of every row, as
                :func:`~repro.runtime.cache.row_digests` would compute
                it (the measurement store writes them at ingest).

        Raises:
            ValueError: when ``samples`` does not hold exactly the rows
                of ``row_keys`` that the memo lacks.
        """
        start = time.perf_counter()
        blocks = as_float(samples)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        digests = row_digests(blocks) if row_keys is None else row_keys
        n, k = len(digests), blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        peaks = self._empty_peaks(n)
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
        if row_keys is None:
            fresh = blocks[miss] if hit else blocks
        elif len(miss) == blocks.shape[0]:
            fresh = blocks
        else:
            raise ValueError(
                f"{blocks.shape[0]} sample rows passed for the {len(miss)}"
                " row keys the memo lacks"
            )
        if hit:
            outputs = (np.empty((n, 3)), np.empty(n), np.empty((n, k)))
            # Gather tile by tile: one whole-matrix fancy index would
            # allocate a third PSD-sized temporary next to the old and
            # new memo.
            for lo in range(0, len(hit), TRANSFORM_TILE_ROWS):
                rows = hit[lo : lo + TRANSFORM_TILE_ROWS]
                from_rows = source[lo : lo + TRANSFORM_TILE_ROWS]
                for out, previous in zip(
                    outputs + peaks, self._memo_outputs + self._memo_peaks
                ):
                    out[rows] = previous[from_rows]
            if miss:
                new = transform_rows(
                    fresh, self.executor, self.journal, [digests[i] for i in miss]
                )
                for out, rows in zip(outputs, new):
                    out[miss] = rows
        else:
            outputs = transform_rows(fresh, self.executor, self.journal, digests)
        self._remember(digests, outputs, peaks)
        if self._memo_from_journal:
            self.journal_hits += len(hit)
        else:
            self.transform_hits += len(hit)
        self._memo_from_journal = False
        self.transform_misses += len(miss)
        if self.journal is not None:
            self.journal_misses += len(miss)
        if profile is not None:
            profile.add("transform", time.perf_counter() - start, len(miss))
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
        row_keys: list[bytes] | None = None,
    ) -> PipelineResult:
        """Execute the full workflow.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g, float32 or float64
                (see :meth:`transform`); with ``row_keys``, only the rows
                whose key the row memo lacks.
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).
            profile: optional collector of per-stage wall-clock timings
                and cache, checkpoint and executor counters.
            row_keys: optional row-memo key per measurement (see
                :meth:`transform`); None digests ``samples``.

        Returns:
            PipelineResult with every layer's artifacts.

        Raises:
            ValueError: on misaligned inputs, or when ``samples`` is not
                exactly the rows of ``row_keys`` the memo lacks.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        blocks = as_float(samples)
        n = ids.shape[0]
        rows = blocks.shape[0] if row_keys is None else len(row_keys)
        if days.shape[0] != n or rows != n:
            raise ValueError("pump_ids, service_days and samples must align")
        if not train_labels:
            raise ValueError("train_labels must not be empty")
        bad_idx = [i for i in train_labels if not 0 <= i < n]
        if bad_idx:
            raise ValueError(f"train_labels reference invalid indices: {bad_idx}")
        profile = profile if profile is not None else RuntimeProfile()
        tallies = self._tallies()

        offsets, rms, psd = self.transform(blocks, profile, row_keys)

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
            # sorted order whatever the executor's width.
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
        from the memo's PSD in tiles of ``TRANSFORM_TILE_ROWS`` rows on
        the transform's threads (:func:`~repro.runtime.batch.run_tiles`)
        and written back, so a later run recalls them.  Extraction is
        row-local, so tiling leaves every peak bit-identical.  The
        distances then run through the packed Algorithm 1 kernel in one
        call.  Padding every row to ``num_peaks`` columns leaves the
        kernel's output unchanged: it reads only each row's real peaks.
        """
        psd = self._memo_outputs[2]
        peak_freqs, peak_vals, counts, extracted = self._memo_peaks
        fresh = rows[~extracted[rows]]

        def extract(lo: int, hi: int) -> None:
            for start in range(lo, hi, TRANSFORM_TILE_ROWS):
                tile = fresh[start : min(start + TRANSFORM_TILE_ROWS, hi)]
                packed = extract_harmonic_peaks_batch(
                    psd[tile],
                    freqs,
                    num_peaks=self.config.num_peaks,
                    window_size=self.config.peak_window_size,
                )
                peak_freqs[tile] = packed.frequencies
                peak_vals[tile] = packed.values
                counts[tile] = packed.counts

        if fresh.size:
            run_tiles(extract, 0, fresh.size, max(1, self.executor.max_workers))
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
        if self.journal is not None:
            tallies["checkpoint_hits"] = self.journal_hits
            tallies["checkpoint_misses"] = self.journal_misses
        return tallies
