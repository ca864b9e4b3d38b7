"""Measurement normalization and feature extraction (Sec. III-B of the paper).

A *measurement* is a block of ``K`` acceleration samples on three orthogonal
axes, shaped ``(K, 3)`` with columns ``(x, y, z)`` in units of g.  From each
measurement the paper derives two features:

* the root mean square (RMS) ``r_mn``, the overall vibration magnitude, and
* the power spectral density (PSD) ``s_mn`` obtained through a discrete
  cosine transform (the ``W_K`` matrix of the paper).

The paper's normalization subtracts the per-axis mean of the measurement to
remove the gravity component and any sensor zero-offset, so the RMS of a
normalized axis equals the standard deviation of its raw samples.

Scaling convention
------------------
The paper writes ``s^x = (1/2K)(a W_K)^2`` and asserts Parseval's identity
``(rms^x)^2 = sum_k s^x_k``.  These two statements are only simultaneously
true for a specific (non-orthonormal) DCT scaling.  We use the orthonormal
DCT-II and scale the squared coefficients by ``1/K``, which makes Parseval's
identity hold *exactly* — the property the paper actually relies on ("s_mn
alone is sufficient to construct feature space").  The constant factor
difference from the paper's ``1/2K`` does not affect any downstream result:
the peak harmonic distance normalizes by the global peak maximum, and all
classifiers are scale-equivariant in the feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core._pocketfft import dct_ortho

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class FeatureConfig:
    """Configuration for feature extraction.

    Attributes:
        sampling_rate_hz: sampling frequency of the measurement block; used
            only to attach physical frequencies to PSD bins.
        samples_per_measurement: expected ``K``; measurements with a
            different length are rejected to prevent silently comparing
            incompatible feature vectors.
    """

    sampling_rate_hz: float = 4000.0
    samples_per_measurement: int = 1024

    def __post_init__(self) -> None:
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        if self.samples_per_measurement < 2:
            raise ValueError("samples_per_measurement must be at least 2")


def _as_measurement(samples: np.ndarray) -> np.ndarray:
    """Validate and coerce a raw measurement block to float64 ``(K, 3)``."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"measurement must have shape (K, 3), got {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("measurement must contain at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("measurement contains non-finite samples")
    return arr


def normalize_measurement(samples: np.ndarray) -> np.ndarray:
    """Remove the per-axis mean from a measurement block.

    This is the paper's ``â = a - 1·mean(a)`` step: it strips the gravity
    bias and any slowly-varying sensor zero offset, leaving only the
    oscillatory vibration component.

    Args:
        samples: raw acceleration block, shape ``(K, 3)`` in g.

    Returns:
        Normalized block of the same shape, each column zero-mean.
    """
    arr = _as_measurement(samples)
    return arr - arr.mean(axis=0, keepdims=True)


def measurement_offsets(samples: np.ndarray) -> np.ndarray:
    """Per-axis average of a measurement block, shape ``(3,)``.

    The averages are the sensor's observed zero-offset (plus gravity
    projection).  They are expected to be constant across a sensor's life;
    the outlier-detection layer (Fig. 8) clusters them to flag invalid
    measurements.
    """
    return _as_measurement(samples).mean(axis=0)


def rms_feature(samples: np.ndarray) -> float:
    """Overall RMS vibration magnitude ``r_mn`` of a measurement.

    Computed as ``sqrt(sum_l rms_l^2)`` over the three normalized axes,
    where ``rms_l = ||â_l|| / sqrt(K)`` is the per-axis standard deviation.
    """
    normalized = normalize_measurement(samples)
    k = normalized.shape[0]
    per_axis_sq = (normalized**2).sum(axis=0) / k
    return float(np.sqrt(per_axis_sq.sum()))


def rms_per_axis(samples: np.ndarray) -> np.ndarray:
    """Per-axis RMS values ``(rms_x, rms_y, rms_z)``."""
    normalized = normalize_measurement(samples)
    k = normalized.shape[0]
    return np.sqrt((normalized**2).sum(axis=0) / k)


def psd_feature(samples: np.ndarray, per_axis: bool = False) -> np.ndarray:
    """DCT-based power spectral density ``s_mn`` of a measurement.

    Each axis is normalized, transformed with the orthonormal DCT-II
    (the ``W_K`` matrix; :func:`~repro.core._pocketfft.dct_ortho`, bit for
    bit ``scipy.fft.dct(type=2, norm="ortho")``), squared and scaled by
    ``1/K`` so that Parseval's identity ``sum_k s_k == rms^2`` holds
    exactly per axis.

    Args:
        samples: raw acceleration block, shape ``(K, 3)``.
        per_axis: when True return the ``(K, 3)`` per-axis PSD; otherwise
            return the combined ``(K,)`` PSD summed over axes (the paper's
            ``s_mn = sum_l s^l_mn``).

    Returns:
        PSD array in g²-per-bin units.
    """
    normalized = normalize_measurement(samples)
    k = normalized.shape[0]
    coeffs = dct_ortho(normalized, axis=0)
    spectra = coeffs**2 / k
    if per_axis:
        return spectra
    return spectra.sum(axis=1)


def welch_psd(
    samples: np.ndarray,
    sampling_rate_hz: float,
    nperseg: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch-averaged PSD — the standard alternative to the paper's DCT.

    The paper computes its PSD as a single full-block DCT (maximum
    frequency resolution, maximum per-bin variance); Welch's method
    trades resolution for variance by averaging windowed segments.  Both
    estimators feed the same downstream feature machinery, so the choice
    is ablatable (see ``benchmarks/test_ablation_dct_vs_welch.py``).

    Args:
        samples: raw acceleration block ``(K, 3)`` in g.
        sampling_rate_hz: sampling rate.
        nperseg: Welch segment length (must not exceed ``K``).

    Returns:
        ``(frequencies, psd)`` with the per-axis PSDs summed, in g²/Hz ×
        bin-width units comparable to :func:`psd_feature`'s convention
        (total over bins equals the signal's variance).
    """
    from scipy.signal import welch  # lazy: not on the analyze path

    normalized = normalize_measurement(samples)
    k = normalized.shape[0]
    if nperseg < 2:
        raise ValueError("nperseg must be at least 2")
    nperseg = min(nperseg, k)
    freqs, pxx = welch(
        normalized, fs=sampling_rate_hz, nperseg=nperseg, axis=0, detrend=False
    )
    # welch returns density (g²/Hz); convert to per-bin power so the sum
    # over bins matches rms² like the DCT-based feature.
    bin_width = sampling_rate_hz / nperseg
    per_bin = pxx * bin_width
    return freqs, per_bin.sum(axis=1)


def psd_frequencies(num_samples: int, sampling_rate_hz: float) -> np.ndarray:
    """Physical frequency (Hz) of each DCT bin.

    The DCT-II basis function of index ``k`` oscillates at ``k / (2K)``
    cycles per sample, i.e. ``k * fs / (2K)`` Hz, so the PSD spans DC to
    the Nyquist frequency ``fs / 2``.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2")
    if sampling_rate_hz <= 0:
        raise ValueError("sampling_rate_hz must be positive")
    k = np.arange(num_samples)
    return k * sampling_rate_hz / (2.0 * num_samples)


def extract_features(samples: np.ndarray, config: FeatureConfig) -> tuple[float, np.ndarray]:
    """Convenience wrapper returning ``(rms, psd)`` for one measurement.

    Raises:
        ValueError: when the block length differs from the configured ``K``.
    """
    arr = _as_measurement(samples)
    if arr.shape[0] != config.samples_per_measurement:
        raise ValueError(
            f"expected K={config.samples_per_measurement} samples, got {arr.shape[0]}"
        )
    return rms_feature(arr), psd_feature(arr)
