"""Classical vibration condition indicators.

The paper's pipeline rests on RMS and the harmonic peak feature, but a
production vibration-analytics engine also exposes the standard scalar
condition indicators that maintenance engineers expect.  They complement
``D_a``: all are cheap per-measurement scalars the GUI can trend, and
``examples/condition_monitoring.py`` trends them over a pump's life.

All indicators operate on a normalized measurement block or its PSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import normalize_measurement, psd_feature, psd_frequencies


def crest_factor(samples: np.ndarray) -> float:
    """Peak-to-RMS ratio of the combined vibration magnitude.

    Grows when impulsive events (bearing impacts) punctuate an otherwise
    smooth signal; a healthy sinusoid sits near ``sqrt(2)``.
    """
    normalized = normalize_measurement(samples)
    magnitude = np.linalg.norm(normalized, axis=1)
    rms = float(np.sqrt((magnitude**2).mean()))
    if rms == 0:
        return 0.0
    return float(magnitude.max() / rms)


def kurtosis(samples: np.ndarray) -> float:
    """Excess kurtosis of the combined vibration signal.

    Near 0 for Gaussian vibration; strongly positive for impulsive
    (damaged-bearing) signals.  Computed over all axes pooled.
    """
    normalized = normalize_measurement(samples).ravel()
    std = normalized.std()
    if std == 0:
        return 0.0
    return float(((normalized / std) ** 4).mean() - 3.0)


def peak_to_peak(samples: np.ndarray) -> float:
    """Largest peak-to-peak swing across the three axes, in g."""
    normalized = normalize_measurement(samples)
    return float(np.ptp(normalized, axis=0).max())


def spectral_centroid(psd: np.ndarray, frequencies: np.ndarray) -> float:
    """Energy-weighted mean frequency of the spectrum.

    Shifts upward as degradation injects high-frequency content — a
    single-number proxy for the paper's "abnormal equipment gives off
    high-frequency noise" observation.
    """
    psd_arr = np.asarray(psd, dtype=np.float64)
    freq_arr = np.asarray(frequencies, dtype=np.float64)
    if psd_arr.shape != freq_arr.shape:
        raise ValueError("psd and frequencies must align")
    total = psd_arr.sum()
    if total <= 0:
        return 0.0
    return float((psd_arr * freq_arr).sum() / total)


def spectral_entropy(psd: np.ndarray) -> float:
    """Normalized Shannon entropy of the PSD in [0, 1].

    Low for a clean harmonic spectrum (energy concentrated in few bins),
    approaching 1 as broadband noise flattens the spectrum.
    """
    psd_arr = np.asarray(psd, dtype=np.float64)
    total = psd_arr.sum()
    if psd_arr.size < 2 or total <= 0:
        return 0.0
    p = psd_arr / total
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log(nonzero)).sum())
    return entropy / float(np.log(psd_arr.size))


@dataclass(frozen=True)
class ConditionIndicators:
    """Bundle of scalar condition indicators for one measurement.

    Attributes mirror the individual functions of this module; see each
    function for interpretation.
    """

    rms: float
    crest_factor: float
    kurtosis: float
    peak_to_peak: float
    spectral_centroid_hz: float
    spectral_entropy: float
    high_frequency_energy: float

    def as_dict(self) -> dict[str, float]:
        return {
            "rms": self.rms,
            "crest_factor": self.crest_factor,
            "kurtosis": self.kurtosis,
            "peak_to_peak": self.peak_to_peak,
            "spectral_centroid_hz": self.spectral_centroid_hz,
            "spectral_entropy": self.spectral_entropy,
            "high_frequency_energy": self.high_frequency_energy,
        }


def condition_indicators(
    samples: np.ndarray,
    sampling_rate_hz: float,
    high_frequency_cutoff_hz: float = 1000.0,
) -> ConditionIndicators:
    """Compute the full indicator bundle for one measurement block.

    Args:
        samples: raw acceleration block ``(K, 3)`` in g.
        sampling_rate_hz: sampling rate for the frequency axis.
        high_frequency_cutoff_hz: boundary for the high-frequency energy
            indicator.
    """
    from repro.core.features import rms_feature

    psd = psd_feature(samples)
    freqs = psd_frequencies(psd.size, sampling_rate_hz)
    hf = freqs >= high_frequency_cutoff_hz
    return ConditionIndicators(
        rms=rms_feature(samples),
        crest_factor=crest_factor(samples),
        kurtosis=kurtosis(samples),
        peak_to_peak=peak_to_peak(samples),
        spectral_centroid_hz=spectral_centroid(psd, freqs),
        spectral_entropy=spectral_entropy(psd),
        high_frequency_energy=float(psd[hf].sum()),
    )
