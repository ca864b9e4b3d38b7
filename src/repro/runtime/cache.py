"""Memoization for harmonic-peak features and peak distances.

The analysis workflow extracts the same harmonic peak features several
times per run: classifier training scores the labelled rows, full-fleet
scoring then rescores every valid row (labelled ones included), and a
dashboard or scheduler invocation repeats the whole thing on identical
data.  Peak extraction and the exemplar build are pure functions of
``(PSD bytes, frequency bytes, peak parameters)``, so a digest-keyed
cache makes the repeats free without any risk of staleness.

Keys are SHA-1 digests of the raw float64 bytes plus the parameter
tuple — content-addressed, so two configs that hash equal *are* equal
work.  The cache is bounded FIFO: entries beyond ``max_entries`` evict
the oldest, which matches the streaming access pattern (old measurement
rows age out of the analysis period and never return).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.core.distance import pack_peaks, packed_harmonic_distances, peak_harmonic_distance
from repro.core.peaks import HarmonicPeaks


def array_digest(arr: np.ndarray) -> bytes:
    """Content digest of an array's float64 bytes (shape included)."""
    data = np.ascontiguousarray(arr, dtype=np.float64)
    digest = hashlib.sha1(repr(data.shape).encode())
    # memoryview feeds the hash without materializing a bytes copy.
    digest.update(data.data)
    return digest.digest()


def row_digests(blocks: np.ndarray) -> list[bytes]:
    """SHA-1 digest of each row's float64 bytes, in row order.

    The key of the pipeline's transform row memo.  Rows of equal
    digest hold equal bytes — hence equal length and equal transform
    output — so no shape prefix is needed.  A key is the row's content,
    never its measurement id: a row rewritten under the same id (a
    replaced upload, injected corruption) gets a new key.
    """
    data = np.ascontiguousarray(blocks, dtype=np.float64)
    return [hashlib.sha1(row).digest() for row in data]


class PeakFeatureCache:
    """Bounded, thread-safe memo for peak features and peak distances.

    Three content-addressed namespaces share one eviction budget:

    * ``peaks``: per-row harmonic peak features keyed by
      ``(psd digest, freqs digest, peak params)``;
    * ``exemplar``: Zone A baseline features keyed the same way (the
      exemplar is just the peak feature of the mean reference PSD);
    * ``distance``: scalar ``D_a`` values keyed by the two peak-feature
      digests and the match tolerance.
    """

    def __init__(self, max_entries: int = 200_000):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def _get(self, key: tuple):
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self.misses += 1
            return None

    def _put(self, key: tuple, value) -> None:
        with self._lock:
            self._store[key] = value
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def _get_many(self, keys: list[tuple]) -> list:
        """Batch :meth:`_get` under one lock acquisition.

        Fleet-scale calls probe tens of thousands of keys per stage; a
        single critical section replaces as many lock round-trips while
        keeping the same hit/miss accounting.
        """
        with self._lock:
            store = self._store
            out = [store.get(key) for key in keys]
            found = sum(value is not None for value in out)
            self.hits += found
            self.misses += len(keys) - found
        return out

    def _put_many(self, pairs: list[tuple[tuple, object]]) -> None:
        """Batch :meth:`_put` under one lock acquisition."""
        with self._lock:
            self._store.update(pairs)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    # ------------------------------------------------------------------
    # Peak features.
    # ------------------------------------------------------------------
    @staticmethod
    def peak_params_key(
        num_peaks: int,
        window_size: int,
        skip_dc_bins: int,
        min_significance: float,
    ) -> tuple:
        return (int(num_peaks), int(window_size), int(skip_dc_bins), float(min_significance))

    def peaks_for_rows(
        self,
        psds: np.ndarray,
        frequencies: np.ndarray,
        params_key: tuple,
        compute_batch,
    ) -> list[HarmonicPeaks]:
        """Peak features for every PSD row, batch-computing only misses.

        Args:
            psds: ``(n, K)`` PSD matrix.
            frequencies: ``(K,)`` bin frequencies.
            params_key: :meth:`peak_params_key` of the extraction config.
            compute_batch: callable ``(rows) -> list[HarmonicPeaks]``
                invoked once over the stacked miss rows.

        Returns:
            One feature per row, cache-backed, in row order.
        """
        rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
        freq_digest = array_digest(frequencies)
        keys = [
            ("peaks", array_digest(row), freq_digest, params_key) for row in rows
        ]
        out: list[HarmonicPeaks | None] = [self._get(key) for key in keys]
        miss_idx = [i for i, value in enumerate(out) if value is None]
        if miss_idx:
            computed = compute_batch(rows[miss_idx])
            for i, peaks in zip(miss_idx, computed):
                self._put(keys[i], peaks)
                out[i] = peaks
        return out  # type: ignore[return-value]

    def exemplar(
        self,
        reference_mean_psd: np.ndarray,
        frequencies: np.ndarray,
        params_key: tuple,
        compute,
    ) -> HarmonicPeaks:
        """Memoized Zone A exemplar feature for a mean reference PSD."""
        key = (
            "exemplar",
            array_digest(reference_mean_psd),
            array_digest(frequencies),
            params_key,
        )
        cached = self._get(key)
        if cached is None:
            cached = compute()
            self._put(key, cached)
        return cached

    # ------------------------------------------------------------------
    # Distances.
    # ------------------------------------------------------------------
    def distance(
        self,
        peaks: HarmonicPeaks,
        reference: HarmonicPeaks,
        match_tolerance_hz: float,
    ) -> float:
        """Memoized peak harmonic distance between two features."""
        key = (
            "distance",
            self._peaks_digest(peaks),
            self._peaks_digest(reference),
            float(match_tolerance_hz),
        )
        cached = self._get(key)
        if cached is None:
            cached = peak_harmonic_distance(
                peaks, reference, match_tolerance_hz=match_tolerance_hz
            )
            self._put(key, cached)
        return cached  # type: ignore[return-value]

    def distances(
        self,
        peaks_list: list[HarmonicPeaks],
        reference: HarmonicPeaks,
        match_tolerance_hz: float,
    ) -> np.ndarray:
        """Memoized ``D_a`` for many features against one reference.

        Misses are packed and resolved through the batched Algorithm 1
        kernel in a single vectorized call (bit-identical to the scalar
        :meth:`distance` per row); hits come straight from the store.
        Repeated features within one call compute once.

        Args:
            peaks_list: per-measurement peak features, row order.
            reference: the shared exemplar feature.
            match_tolerance_hz: maximum physical frequency gap for a match.

        Returns:
            ``(len(peaks_list),)`` float64 distances, cache-backed.
        """
        ref_digest = self._peaks_digest(reference)
        tol = float(match_tolerance_hz)
        keys = [
            ("distance", self._peaks_digest(peaks), ref_digest, tol)
            for peaks in peaks_list
        ]
        out = np.empty(len(peaks_list))
        miss_idx: list[int] = []
        first_for_key: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            cached = self._get(key)
            if cached is not None:
                out[i] = cached
            else:
                # Duplicate misses within one call compute once below.
                first_for_key.setdefault(key, i)
                miss_idx.append(i)
        if first_for_key:
            unique_idx = list(first_for_key.values())
            computed = packed_harmonic_distances(
                pack_peaks([peaks_list[i] for i in unique_idx]),
                reference,
                match_tolerance_hz=tol,
            )
            values = {}
            for i, value in zip(unique_idx, computed):
                values[keys[i]] = float(value)
                self._put(keys[i], float(value))
            for i in miss_idx:
                out[i] = values[keys[i]]
        return out

    # ------------------------------------------------------------------
    # Fused per-row scoring.
    # ------------------------------------------------------------------
    def scores_for_rows(
        self,
        psds: np.ndarray,
        frequencies: np.ndarray,
        params_key: tuple,
        reference: HarmonicPeaks,
        match_tolerance_hz: float,
        compute_peaks_batch,
    ) -> np.ndarray:
        """``D_a`` per PSD row with a single digest pass over the rows.

        The two-step path (:meth:`peaks_for_rows` then :meth:`distances`)
        hashes every row for the peaks lookup and then every peak feature
        for the distance lookup — two Python-level passes over the fleet
        even when everything hits.  Here each PSD row is digested once
        and that digest keys *both* namespaces: a warm row resolves its
        distance directly (``("distance", row, freqs, params, ref, tol)``)
        without ever materializing the peak feature, and a cold row fills
        the ``peaks`` entry and the row-keyed distance entry from one
        batched extraction + one batched Algorithm 1 call.

        Args:
            psds: ``(n, K)`` PSD matrix.
            frequencies: ``(K,)`` bin frequencies.
            params_key: :meth:`peak_params_key` of the extraction config.
            reference: the shared exemplar feature.
            match_tolerance_hz: maximum physical frequency gap for a match.
            compute_peaks_batch: callable ``(rows) -> list[HarmonicPeaks]``
                invoked once over the stacked peak-miss rows.

        Returns:
            ``(n,)`` float64 distances, bit-identical to the two-step path.
        """
        rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
        freq_digest = array_digest(frequencies)
        ref_digest = self._peaks_digest(reference)
        tol = float(match_tolerance_hz)
        row_digests = [array_digest(row) for row in rows]
        dist_keys = [
            ("distance", digest, freq_digest, params_key, ref_digest, tol)
            for digest in row_digests
        ]
        out = np.empty(rows.shape[0])
        cached_dists = self._get_many(dist_keys)
        miss_idx: list[int] = []
        first_for_key: dict[tuple, int] = {}
        for i, cached in enumerate(cached_dists):
            if cached is not None:
                out[i] = cached
            else:
                # Duplicate rows within one call compute once below.
                first_for_key.setdefault(dist_keys[i], i)
                miss_idx.append(i)
        if first_for_key:
            unique_idx = list(first_for_key.values())
            peak_keys = [
                ("peaks", row_digests[i], freq_digest, params_key) for i in unique_idx
            ]
            cached_peaks = self._get_many(peak_keys)
            peaks_by_row: dict[int, HarmonicPeaks] = {
                i: peaks
                for i, peaks in zip(unique_idx, cached_peaks)
                if peaks is not None
            }
            peaks_miss = [i for i, p in zip(unique_idx, cached_peaks) if p is None]
            if peaks_miss:
                computed = compute_peaks_batch(rows[peaks_miss])
                self._put_many(
                    [
                        (("peaks", row_digests[i], freq_digest, params_key), peaks)
                        for i, peaks in zip(peaks_miss, computed)
                    ]
                )
                peaks_by_row.update(zip(peaks_miss, computed))
            distances = packed_harmonic_distances(
                pack_peaks([peaks_by_row[i] for i in unique_idx]),
                reference,
                match_tolerance_hz=tol,
            )
            values: dict[tuple, float] = {
                dist_keys[i]: float(value) for i, value in zip(unique_idx, distances)
            }
            self._put_many(list(values.items()))
            for i in miss_idx:
                out[i] = values[dist_keys[i]]
        return out

    @staticmethod
    def _peaks_digest(peaks: HarmonicPeaks) -> bytes:
        freqs = np.ascontiguousarray(peaks.frequencies, dtype=np.float64)
        vals = np.ascontiguousarray(peaks.values, dtype=np.float64)
        digest = hashlib.sha1(repr(freqs.shape).encode())
        digest.update(freqs.data)
        digest.update(vals.data)
        return digest.digest()


class ModelFitCache:
    """Bounded, thread-safe memo for lifetime-model fits.

    A recursive-RANSAC fit is a pure function of ``(engine config +
    initial RNG state, fit data)`` — :meth:`RecursiveRANSAC.config_key
    <repro.core.ransac.RecursiveRANSAC.config_key>` captures the former
    and a content digest of the ``(x, z)`` arrays the latter.  The
    walk-forward backtest exploits this: consecutive refresh days whose
    prefix windows contain the same valid points (no new measurements
    landed in between) hash equal and reuse the fitted models outright.

    Values are lists of frozen :class:`~repro.core.ransac.LineModel`
    instances; callers must treat them (and their index arrays) as
    immutable.  Eviction is FIFO like the other runtime caches.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    @staticmethod
    def fit_key(config_key: tuple, x: np.ndarray, z: np.ndarray) -> tuple:
        """Content-addressed key for a fit: engine config + data digests."""
        return ("model-fit", config_key, array_digest(x), array_digest(z))

    def models(self, key: tuple, compute) -> list:
        """Cached model list for ``key``; ``compute()`` fills a miss."""
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self.misses += 1
        models = compute()
        with self._lock:
            self._store[key] = models
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return models


_DEFAULT_CACHE = PeakFeatureCache()

_DEFAULT_MODEL_FIT_CACHE = ModelFitCache()


def default_peak_cache() -> PeakFeatureCache:
    """The process-wide cache shared by pipelines by default."""
    return _DEFAULT_CACHE


def default_model_fit_cache() -> ModelFitCache:
    """The process-wide lifetime-model fit memo (backtests share it)."""
    return _DEFAULT_MODEL_FIT_CACHE
