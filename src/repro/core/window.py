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

    All rows are reflect-padded in one 2-D pad, then each row runs
    through the *same* ``np.convolve`` call as the scalar path — so the
    result is bit-identical to calling :func:`smooth_hann` per row by
    construction (the pipeline relies on this to keep exact parity with
    the scalar oracle in ``tests/reference/``).  Per-row convolve
    beats a single guard-separated flat convolution here: ``correlate``
    on the flat layout pays for the guard gaps and loses cache locality,
    measuring ~2x slower than the loop at fleet scale.

    Args:
        rows: 2-D array of series to smooth, one per row.
        window_size: Hann window size ``n_h``; 1 returns a copy.

    Returns:
        Smoothed array, same shape as ``rows``.
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
    out = np.empty_like(arr)
    for i in range(n):
        out[i] = np.convolve(padded[i], window, mode="same")[pad : pad + k]
    return out


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
