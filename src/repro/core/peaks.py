"""Harmonic peak feature extraction (Sec. IV-B).

Raw PSD vectors are high dimensional (1024 bins) and noisy, which makes them
poor direct inputs for regression: the Gram matrix ``s^T s`` is typically
singular and per-bin amplitudes fluctuate heavily between measurements.  The
paper's remedy is a *harmonic peak feature*: the set of the ``n_p`` most
significant spectral peaks, each represented by its ``(frequency, amplitude)``
pair.

The extraction procedure is exactly the paper's:

1. smooth the PSD over adjacent frequency bins with a Hann window of size
   ``n_h`` (24 by default), and
2. find the points where the first-order differential changes from positive
   to negative (local maxima of the smoothed PSD),

then keep the ``n_p`` (20 by default) highest peaks, reported in increasing
frequency order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.window import smooth_hann, smooth_hann_batch

DEFAULT_NUM_PEAKS = 20
DEFAULT_WINDOW_SIZE = 24


@dataclass(frozen=True)
class HarmonicPeaks:
    """Harmonic peak feature ``p_n = {(f_nk, p_nk)}`` of one measurement.

    Attributes:
        frequencies: peak frequencies in Hz, strictly increasing.
        values: peak amplitudes (same units as the input PSD), aligned with
            ``frequencies``.
    """

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if freqs.shape != vals.shape or freqs.ndim != 1:
            raise ValueError("frequencies and values must be 1-D arrays of equal length")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("peak frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.frequencies.size)

    def as_pairs(self) -> np.ndarray:
        """Peaks as an ``(n, 2)`` array of ``(frequency, value)`` rows."""
        return np.stack([self.frequencies, self.values], axis=1)

    @property
    def max_value(self) -> float:
        """Largest peak amplitude, 0.0 when there are no peaks."""
        return float(self.values.max()) if len(self) else 0.0

    @property
    def max_frequency(self) -> float:
        """Largest peak frequency, 0.0 when there are no peaks."""
        return float(self.frequencies.max()) if len(self) else 0.0


@dataclass(frozen=True)
class PackedPeaks:
    """A batch of harmonic peak features packed into padded matrices.

    Ragged per-measurement peak sets are stored as fixed-width rows so the
    batched Algorithm 1 kernel can run whole-fleet vectorized passes.
    Row ``i`` holds feature ``i``'s peaks in its first ``counts[i]``
    columns (increasing frequency order, like :class:`HarmonicPeaks`);
    the padding columns hold zeros and are never read through a valid
    index.

    Attributes:
        frequencies: ``(N, P)`` peak frequencies in Hz, zero-padded.
        values: ``(N, P)`` peak amplitudes, zero-padded, aligned with
            ``frequencies``.
        counts: ``(N,)`` number of real peaks per row.
    """

    frequencies: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.intp)
        if freqs.ndim != 2 or freqs.shape != vals.shape:
            raise ValueError("frequencies and values must be equal-shape 2-D arrays")
        if counts.shape != (freqs.shape[0],):
            raise ValueError("counts must have one entry per row")
        if counts.size and (counts.min() < 0 or counts.max() > freqs.shape[1]):
            raise ValueError("counts must lie in [0, P]")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.counts.shape[0])

    @property
    def valid(self) -> np.ndarray:
        """``(N, P)`` boolean mask of real (non-padding) peak slots."""
        width = self.frequencies.shape[1]
        return np.arange(width)[None, :] < self.counts[:, None]

    def row(self, i: int) -> HarmonicPeaks:
        """Unpack one row back into a :class:`HarmonicPeaks` feature."""
        n = int(self.counts[i])
        return HarmonicPeaks(self.frequencies[i, :n].copy(), self.values[i, :n].copy())


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices where the first-order differential flips positive→negative.

    Plateau maxima (exactly equal neighbours) are attributed to the first
    bin of the plateau.  Endpoints are never reported as peaks, matching
    the paper's sign-change criterion, except that a series rising into the
    last bin has no sign change and therefore no peak there.

    This is the scalar reference implementation (a literal transcription
    of the criterion); the batched runtime uses :func:`_local_maxima_mask`,
    which the parity tests hold bit-identical to this function.
    """
    if values.size < 3:
        return np.empty(0, dtype=np.intp)
    diff = np.diff(values)
    # Treat zero differences as continuing the previous trend so plateaus
    # produce a single sign change at their leading edge.
    sign = np.sign(diff)
    for i in range(1, sign.size):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    rising = sign[:-1] > 0
    falling = sign[1:] < 0
    return np.nonzero(rising & falling)[0] + 1


def _local_maxima_mask(rows: np.ndarray) -> np.ndarray:
    """Vectorized local-maximum mask per row of a ``(n, K)`` matrix.

    ``mask[i, j]`` is True when bin ``j`` of row ``i`` satisfies the
    sign-change criterion of :func:`_local_maxima`.  Rows without any
    zero difference — the overwhelming majority of real PSD rows — take
    a pure comparison path; only rows containing a plateau pay for the
    forward fill that lands plateau maxima on the leading edge.
    """
    n, k = rows.shape
    mask = np.zeros((n, k), dtype=bool)
    if k < 3:
        return mask
    diff = np.diff(rows, axis=1)
    nonzero = diff != 0.0
    rising = diff > 0
    # Plateau-free criterion: a strict rise into the bin and a strict
    # fall out of it.  (`~rising & nonzero` is "strictly falling".)
    mask[:, 1:-1] = rising[:, :-1] & ~rising[:, 1:] & nonzero[:, 1:]
    plateau_rows = np.nonzero(~nonzero.all(axis=1))[0]
    if plateau_rows.size:
        mask[plateau_rows] = _local_maxima_mask_filled(rows[plateau_rows])
    return mask


def _local_maxima_mask_filled(rows: np.ndarray) -> np.ndarray:
    """Local-maximum mask with plateau forward-filling (any row shape).

    The general form of :func:`_local_maxima_mask`: zero differences are
    forward-filled with the previous trend (plateau maxima land on the
    plateau's leading edge), implemented as an index-carrying cumulative
    maximum instead of the per-element Python loop of the scalar path.
    """
    n, k = rows.shape
    mask = np.zeros((n, k), dtype=bool)
    diff = np.diff(rows, axis=1)
    # int8 signs: the fill/compare passes below are pure sign logic, so
    # narrow integers cut the memory traffic of the hot scan 8x.
    sign = (diff > 0).astype(np.int8) - (diff < 0).astype(np.int8)
    # Forward-fill zeros: each position takes the sign at the latest
    # non-zero position at or before it (a leading run of zeros keeps 0).
    positions = np.where(sign != 0, np.arange(sign.shape[1], dtype=np.int32)[None, :], 0)
    filled = np.take_along_axis(
        sign, np.maximum.accumulate(positions, axis=1), axis=1
    )
    rising = filled[:, :-1] > 0
    falling = filled[:, 1:] < 0
    mask[:, 1:-1] = rising & falling
    return mask


DEFAULT_MIN_SIGNIFICANCE = 0.02


def extract_harmonic_peaks(
    psd: np.ndarray,
    frequencies: np.ndarray,
    num_peaks: int = DEFAULT_NUM_PEAKS,
    window_size: int = DEFAULT_WINDOW_SIZE,
    skip_dc_bins: int = 2,
    min_significance: float = DEFAULT_MIN_SIGNIFICANCE,
) -> HarmonicPeaks:
    """Extract the harmonic peak feature from a PSD vector.

    Args:
        psd: 1-D PSD amplitudes (combined over axes).
        frequencies: physical frequency of each bin, same length as ``psd``.
        num_peaks: ``n_p`` — maximum number of peaks to keep (paper: 20).
        window_size: ``n_h`` — Hann smoothing window size (paper: 24).
        skip_dc_bins: lowest bins to exclude from the search; normalization
            removes DC but smoothing can leak residual low-bin energy into
            a spurious edge maximum.
        min_significance: peaks whose smoothed amplitude falls below this
            fraction of the strongest candidate are discarded — the
            paper's Fig. 9 keeps only "peaks with high significance", and
            without this floor the sensor's noise floor contributes
            spurious high-frequency peaks that inflate the distance of
            even healthy equipment.

    Returns:
        HarmonicPeaks with at most ``num_peaks`` peaks in increasing
        frequency order.  The peak *amplitudes* are read from the smoothed
        PSD, which is what makes the feature stable across measurements.
    """
    psd_arr = np.asarray(psd, dtype=np.float64)
    freq_arr = np.asarray(frequencies, dtype=np.float64)
    if psd_arr.ndim != 1:
        raise ValueError("psd must be 1-D")
    if psd_arr.shape != freq_arr.shape:
        raise ValueError("psd and frequencies must have the same shape")
    _check_peak_params(num_peaks, skip_dc_bins, min_significance)

    smoothed = smooth_hann(psd_arr, window_size)
    candidates = _local_maxima(smoothed)
    return _select_peaks(
        smoothed, freq_arr, candidates, num_peaks, skip_dc_bins, min_significance
    )


def _check_peak_params(num_peaks: int, skip_dc_bins: int, min_significance: float) -> None:
    if num_peaks < 1:
        raise ValueError("num_peaks must be positive")
    if skip_dc_bins < 0:
        raise ValueError("skip_dc_bins must be non-negative")
    if not 0.0 <= min_significance < 1.0:
        raise ValueError("min_significance must be in [0, 1)")


def _select_peaks(
    smoothed: np.ndarray,
    freq_arr: np.ndarray,
    candidates: np.ndarray,
    num_peaks: int,
    skip_dc_bins: int,
    min_significance: float,
) -> HarmonicPeaks:
    """Significance filter + top-``num_peaks`` selection over maxima indices."""
    candidates = candidates[candidates >= skip_dc_bins]
    if candidates.size and min_significance > 0:
        floor = min_significance * smoothed[candidates].max()
        candidates = candidates[smoothed[candidates] >= floor]
    if candidates.size == 0:
        return HarmonicPeaks(np.empty(0), np.empty(0))

    # Keep the num_peaks most significant maxima, then restore frequency
    # order.  The descending sort is stable (equal amplitudes keep their
    # frequency order) so the scalar and batched top-k agree bit-for-bit
    # even on tied candidates.
    order = np.argsort(-smoothed[candidates], kind="stable")[:num_peaks]
    selected = np.sort(candidates[order])
    return HarmonicPeaks(freq_arr[selected], smoothed[selected])


def extract_harmonic_peaks_batch(
    psds: np.ndarray,
    frequencies: np.ndarray,
    num_peaks: int = DEFAULT_NUM_PEAKS,
    window_size: int = DEFAULT_WINDOW_SIZE,
    skip_dc_bins: int = 2,
    min_significance: float = DEFAULT_MIN_SIGNIFICANCE,
) -> PackedPeaks:
    """:func:`extract_harmonic_peaks` over PSD rows ``(n, K)`` in one pass.

    Every stage — Hann smoothing, the local-maxima scan, the significance
    floor, and the top-``num_peaks`` selection — runs vectorized over the
    whole matrix (one C convolution plus masked reductions and a single
    stable argsort; no per-row Python loop).  ``PackedPeaks.row(i)`` is
    bit-identical to the scalar function applied to row ``i``, which is
    the contract the batched analysis runtime's parity tests enforce.

    Args:
        psds: PSD matrix, one measurement per row.
        frequencies: physical frequency per column, shape ``(K,)``.
        num_peaks: ``n_p`` — maximum number of peaks to keep per row.
        window_size: ``n_h`` — Hann smoothing window size.
        skip_dc_bins: lowest bins to exclude from the search.
        min_significance: per-row significance floor (see scalar docs).

    Returns:
        The peaks of every row, in row order, packed ``num_peaks`` wide.
    """
    rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
    freq_arr = np.asarray(frequencies, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("psds must be a 2-D matrix")
    if freq_arr.ndim != 1 or freq_arr.shape[0] != rows.shape[1]:
        raise ValueError("frequencies must align with psd columns")
    _check_peak_params(num_peaks, skip_dc_bins, min_significance)

    smoothed = smooth_hann_batch(rows, window_size)
    mask = _local_maxima_mask(smoothed)
    return _select_peaks_batch(
        smoothed, freq_arr, mask, num_peaks, skip_dc_bins, min_significance
    )


def _select_peaks_batch(
    smoothed: np.ndarray,
    freq_arr: np.ndarray,
    mask: np.ndarray,
    num_peaks: int,
    skip_dc_bins: int,
    min_significance: float,
) -> PackedPeaks:
    """Vectorized :func:`_select_peaks` over every row at once.

    Candidate maxima are first *compacted*: ``np.nonzero`` lists them in
    row-major order, so scattering into a padded ``(n, max_candidates)``
    matrix preserves each row's frequency order with the padding slots
    holding ``-inf`` values and a sentinel column index.  The stable
    descending argsort then runs over tens of columns instead of the
    full bin width — the same top-``k`` (ties keep frequency order, like
    the scalar path's stable sort over its candidate list) at a fraction
    of the sort cost.  Sorting the selected column indices afterwards
    restores frequency order, exactly like the scalar path's
    ``np.sort(candidates[order])``.
    """
    n_rows, n_bins = smoothed.shape
    mask = mask.copy()
    mask[:, : min(skip_dc_bins, n_bins)] = False
    freqs = np.zeros((n_rows, num_peaks))
    vals = np.zeros((n_rows, num_peaks))

    counts = mask.sum(axis=1)
    max_cand = int(counts.max()) if n_rows else 0
    if max_cand == 0:
        return PackedPeaks(freqs, vals, np.zeros(n_rows, dtype=np.intp))

    # Compact candidates: row-major nonzero order keeps each row's
    # columns increasing, so slot order == frequency order.
    rowe, cole = np.nonzero(mask)
    starts = np.zeros(n_rows, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    slots = np.arange(rowe.size) - starts[rowe]
    cand_cols = np.full((n_rows, max_cand), n_bins, dtype=np.intp)
    cand_vals = np.full((n_rows, max_cand), -np.inf)
    cand_cols[rowe, slots] = cole
    cand_vals[rowe, slots] = smoothed[rowe, cole]

    if min_significance > 0:
        row_max = cand_vals.max(axis=1)
        # Rows with no candidates have row_max == -inf; their floor stays
        # -inf, so the explicit padding guard below must carry the cut.
        floor = min_significance * row_max
        keep = (cand_vals >= floor[:, None]) & (cand_cols < n_bins)
        cand_vals[~keep] = -np.inf
        cand_cols[~keep] = n_bins
        counts = keep.sum(axis=1)

    take = np.minimum(counts, num_peaks)
    if not counts.any():
        return PackedPeaks(freqs, vals, take)

    # Stable descending argsort: padding (-inf) sinks to the end, tied
    # candidates keep frequency order — the same tie rule as the scalar
    # selection.  Invalid tail slots keep the sentinel column so the
    # final per-row index sort pushes them past every real selection.
    width = min(num_peaks, max_cand)
    order = np.argsort(-cand_vals, axis=1, kind="stable")[:, :width]
    real = np.arange(width)[None, :] < take[:, None]
    selected = np.take_along_axis(cand_cols, order, axis=1)
    selected = np.sort(np.where(real, selected, n_bins), axis=1)

    # After the sort each row's real selections fill its first take[i]
    # slots; the zero padding behind them is never read.
    safe = np.minimum(selected, n_bins - 1)
    freqs[:, :width] = np.where(real, freq_arr[safe], 0.0)
    vals[:, :width] = np.where(real, np.take_along_axis(smoothed, safe, axis=1), 0.0)
    return PackedPeaks(freqs, vals, take)
