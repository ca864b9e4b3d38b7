"""The layered analytical workflow of Fig. 7, as a pure-numpy pipeline.

The pipeline mirrors the paper's layer stack:

* **data transformation** — raw acceleration blocks to physical features
  (per-measurement offsets, RMS, DCT-based PSD);
* **data preprocessing** — mean-shift outlier detection on acceleration
  averages per sensor, moving-average denoising of the degradation-feature
  time series, and construction of the dense matrices used downstream;
* **feature matrix extraction** — harmonic peak features, taken in the
  transform tile while each PSD row is in cache, and the peak harmonic
  distance ``D_a`` from a Zone A exemplar; each row's peaks are memoized
  with its transform outputs, keyed by the row's content, and a PSD row
  is kept only where a stage reads it;
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
from typing import NamedTuple

import numpy as np

from repro.core.classify import ZONE_A, OrderedThresholdClassifier, PeakHarmonicFeature
from repro.core.distance import packed_harmonic_distances
from repro.core.features import psd_frequencies
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.peaks import (
    DEFAULT_NUM_PEAKS,
    DEFAULT_WINDOW_SIZE,
    PackedPeaks,
    extract_harmonic_peaks_batch,
)
from repro.core.ransac import LineModel, RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average
from repro.runtime.batch import TRANSFORM_TILE_ROWS, transform_rows
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


def psd_positions(psd_rows: np.ndarray, rows) -> np.ndarray:
    """Positions in ``psd_rows`` (ascending row indices) of ``rows``.

    Raises:
        ValueError: when a row's PSD was not kept.
    """
    rows = np.asarray(rows, dtype=np.intp)
    positions = np.searchsorted(psd_rows, rows)
    if rows.size and (
        positions.max() >= psd_rows.size
        or not np.array_equal(psd_rows[positions], rows)
    ):
        raise ValueError("the PSD of a requested row was not kept")
    return positions


class RowFeatures(NamedTuple):
    """Per-row transform outputs of :meth:`AnalysisPipeline.transform`.

    Attributes:
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        peak_frequencies: ``(n, num_peaks)`` harmonic peak frequencies,
            zero-padded (see :class:`~repro.core.peaks.PackedPeaks`).
        peak_values: ``(n, num_peaks)`` peak amplitudes, zero-padded.
        peak_counts: ``(n,)`` real peaks per row.
        psd: ``(m, K)`` PSD rows of the rows at ``psd_rows``.
        psd_rows: ``(m,)`` ascending row indices whose PSD was kept.
    """

    offsets: np.ndarray
    rms: np.ndarray
    peak_frequencies: np.ndarray
    peak_values: np.ndarray
    peak_counts: np.ndarray
    psd: np.ndarray
    psd_rows: np.ndarray

    @property
    def peaks(self) -> PackedPeaks:
        """Every row's harmonic peaks, packed."""
        return PackedPeaks(self.peak_frequencies, self.peak_values, self.peak_counts)


@dataclass
class PipelineResult:
    """All artifacts produced by one pipeline run.

    Attributes:
        valid_mask: per-measurement validity after outlier detection.
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        peaks: harmonic peaks of every measurement, packed.
        psd: ``(m, K)`` PSD rows of the measurements at ``psd_rows``:
            the labelled Zone A rows, or every row when the run was
            asked to keep them (``keep_psd``).
        psd_rows: ``(m,)`` ascending measurement indices of ``psd``.
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
    peaks: PackedPeaks
    psd: np.ndarray
    psd_rows: np.ndarray
    da: np.ndarray
    zones: np.ndarray
    zone_thresholds: np.ndarray
    zone_d_threshold: float
    lifetime_models: list[LineModel]
    rul: dict[object, RULPrediction]

    def psd_of(self, rows) -> np.ndarray:
        """PSD rows of measurement indices ``rows``, in the order given.

        Raises:
            ValueError: when a row's PSD was not kept.
        """
        return self.psd[psd_positions(self.psd_rows, rows)]


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
        #: rows, before the first): row key → row index into the frozen
        #: per-row outputs ``(offsets, rms, peak_frequencies,
        #: peak_values, peak_counts)``, and row key → row of the frozen
        #: PSD rows that call kept.
        self._memo_rows: dict[bytes, int] = {}
        self._memo_outputs: tuple[np.ndarray, ...] = ()
        self._memo_psd_rows: dict[bytes, int] = {}
        self._memo_psd = np.empty((0, 0))
        #: Rows the last :meth:`transform` call transformed.
        self._fresh = np.zeros(0, dtype=bool)
        #: Rows recalled from the in-process memo / transformed, cumulative.
        self.transform_hits = 0
        self.transform_misses = 0
        #: Rows recalled from / written to the journal, cumulative.
        self.journal_hits = 0
        self.journal_misses = 0
        #: Valid rows whose peaks were recalled / extracted, cumulative.
        self.peak_hits = 0
        self.peak_misses = 0
        seed = journal.load(self._peak_spec()) if journal is not None else None
        #: True while the memo holds the journal's rows, until the first
        #: transform: its hits are journal hits.
        self._memo_from_journal = seed is not None
        if seed is not None:
            keys, outputs, psd_rows, psd = seed
            self._remember(keys, outputs, [keys[i] for i in psd_rows], psd)

    @property
    def memo_keys(self):
        """Row keys the row memo holds (a read-only view)."""
        return self._memo_rows.keys()

    @property
    def psd_keys(self):
        """Row keys whose PSD row the row memo holds (a read-only view)."""
        return self._memo_psd_rows.keys()

    def _peak_spec(self) -> str:
        """The peak parameters journaled rows must share to be recalled."""
        config = self.config
        return (
            f"peaks={config.num_peaks} window={config.peak_window_size}"
            f" fs={config.sampling_rate_hz!r}"
        )

    def _remember(self, keys, outputs, psd_keys, psd) -> None:
        """Make ``outputs`` and ``psd`` (frozen) the row memo of ``keys``."""
        for out in (*outputs, psd):
            out.setflags(write=False)
        self._memo_rows = dict(zip(keys, range(len(keys))))
        self._memo_outputs = tuple(outputs)
        self._memo_psd_rows = dict(zip(psd_keys, range(len(psd_keys))))
        self._memo_psd = psd

    def _extract(self, num_bins: int):
        """Tile peak extraction: ``(m, K)`` PSD rows → packed peak arrays."""
        freqs = self.frequencies(num_bins)

        def extract(rows: np.ndarray) -> tuple[np.ndarray, ...]:
            packed = extract_harmonic_peaks_batch(
                rows,
                freqs,
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            )
            return packed.frequencies, packed.values, packed.counts

        return extract

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def transform(
        self,
        samples: np.ndarray,
        profile: RuntimeProfile | None = None,
        row_keys: list[bytes] | None = None,
        psd_rows=None,
    ) -> RowFeatures:
        """Data transformation layer: every block's :class:`RowFeatures`.

        Each row's offsets, RMS and harmonic peaks come out of one pass
        over its transform tile; its PSD row is kept only when
        ``psd_rows`` names it (every row when ``psd_rows`` is None).

        Rows are memoized by content.  Each row has one key: given in
        ``row_keys``, or else digested here
        (:func:`~repro.runtime.cache.row_digests`).  A row the previous
        call also saw is gathered from that call's frozen result
        matrices — unless its own PSD is wanted and that call did not
        keep it — and only the other rows, compacted, go through
        :func:`~repro.runtime.batch.transform_rows`.  A rolling-window
        refresh therefore transforms just its new tail.  Every transform
        op is row-local, so gathered and recomputed rows are
        bit-identical to a cold run.  The memo holds the last call's
        outputs only, and those are the arrays this call returns:
        read-only, so no alias can change a memoized row.  A pipeline
        with a journal starts from the journal's rows and journals every
        row it transforms.

        Float32 samples (the stored precision) and float64 samples are
        used as given — no whole-matrix upcast; each transform tile
        upcasts its own rows exactly — and any other dtype is cast to
        float64.  Row digests hash the rows in that dtype.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``; with
                ``row_keys``, only the rows the memo cannot serve — its
                key is not in :attr:`memo_keys`, or its own PSD is
                wanted and its key is not in :attr:`psd_keys` — in row
                order (``(0, K, 3)`` when it serves every row).
            profile: optional collector for the ``transform`` stage; its
                item count is the rows actually transformed.
            row_keys: optional row key of every row, as
                :func:`~repro.runtime.cache.row_digests` would compute
                it (the measurement store writes them at ingest).
            psd_rows: optional row indices whose PSD to keep; None keeps
                every row's.

        Raises:
            ValueError: when ``samples`` does not hold exactly the rows
                of ``row_keys`` that the memo cannot serve.
        """
        start = time.perf_counter()
        blocks = as_float(samples)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        digests = row_digests(blocks) if row_keys is None else row_keys
        n, k = len(digests), blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        if psd_rows is None:
            keep = np.ones(n, dtype=bool)
        else:
            keep = np.zeros(n, dtype=bool)
            keep[np.asarray(psd_rows, dtype=np.intp)] = True
        kept = np.flatnonzero(keep)
        # A memoized row serves this call unless its own PSD is wanted
        # and the memo did not keep it.
        hit: list[int] = []
        source: list[int] = []
        miss: list[int] = []
        for row, (digest, wanted) in enumerate(zip(digests, keep.tolist())):
            index = self._memo_rows.get(digest)
            if index is None or (wanted and digest not in self._memo_psd_rows):
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
                " rows the memo lacks"
            )
        transformed = np.zeros(n, dtype=bool)
        transformed[miss] = True
        outputs, psd = transform_rows(
            fresh,
            self.executor,
            self._extract(k),
            self.config.num_peaks,
            keep[miss],
            self.journal,
            [digests[i] for i in miss],
        )
        if hit:
            new_outputs, new_psd = outputs, psd
            outputs = tuple(
                np.empty((n, *out.shape[1:]), dtype=out.dtype) for out in new_outputs
            )
            for out, previous, rows in zip(outputs, self._memo_outputs, new_outputs):
                out[hit] = previous[source]
                out[miss] = rows
            psd = np.empty((kept.size, k))
            psd[transformed[kept]] = new_psd
            # Gather PSD rows tile by tile: one whole-matrix fancy index
            # would allocate a third PSD-sized temporary next to the old
            # and new memo.
            recalled = np.flatnonzero(~transformed[kept])
            for lo in range(0, recalled.size, TRANSFORM_TILE_ROWS):
                at = recalled[lo : lo + TRANSFORM_TILE_ROWS]
                psd[at] = self._memo_psd[
                    [self._memo_psd_rows[digests[i]] for i in kept[at]]
                ]
        kept.setflags(write=False)
        self._remember(digests, outputs, [digests[i] for i in kept], psd)
        self._fresh = transformed
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
        return RowFeatures(*self._memo_outputs, psd, kept)

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
        keep_psd: bool = False,
    ) -> PipelineResult:
        """Execute the full workflow.

        Only the Zone A exemplar reads PSD rows, so the result keeps the
        PSD of the labelled Zone A measurements alone unless
        ``keep_psd`` asks for every row's (a caller that diagnoses).
        ``D_a`` is scored from the harmonic peaks the transform tile
        extracted.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g, float32 or float64
                (see :meth:`transform`); with ``row_keys``, only the rows
                the row memo cannot serve.
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).
            profile: optional collector of per-stage wall-clock timings
                and cache, checkpoint and executor counters.
            row_keys: optional row-memo key per measurement (see
                :meth:`transform`); None digests ``samples``.
            keep_psd: keep every measurement's PSD row in the result.

        Returns:
            PipelineResult with every layer's artifacts.

        Raises:
            ValueError: on misaligned inputs, or when ``samples`` is not
                exactly the rows of ``row_keys`` the memo cannot serve.
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

        psd_rows = None
        if not keep_psd:
            psd_rows = [i for i in sorted(train_labels) if train_labels[i] == ZONE_A]
        features = self.transform(blocks, profile, row_keys, psd_rows)
        offsets = features.offsets

        with profile.stage("preprocess", n):
            valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(features.psd.shape[1])
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
            reference_psd = features.psd[psd_positions(features.psd_rows, reference)]
            exemplar = PeakHarmonicFeature(
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            ).fit(reference_psd, freqs).baseline_

        with profile.stage("score_da", int(valid_idx.size)):
            # Padding every row to num_peaks columns leaves the packed
            # kernel's output unchanged: it reads only real peaks.
            da = np.full(n, np.nan)
            peaks = features.peaks
            da[valid_idx] = packed_harmonic_distances(
                PackedPeaks(
                    peaks.frequencies[valid_idx],
                    peaks.values[valid_idx],
                    peaks.counts[valid_idx],
                ),
                exemplar,
            )
            extracted = int(np.count_nonzero(self._fresh[valid_idx]))
            self.peak_hits += valid_idx.size - extracted
            self.peak_misses += extracted
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
            rms=features.rms,
            peaks=peaks,
            psd=features.psd,
            psd_rows=features.psd_rows,
            da=da,
            zones=zones,
            zone_thresholds=classifier.thresholds_,
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
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
