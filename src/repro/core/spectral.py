"""Classical vibration condition indicators.

The paper's pipeline rests on RMS and the harmonic peak feature, but a
production vibration-analytics engine also exposes the standard scalar
condition indicators that maintenance engineers expect (ISO 10816-style
severity assessment, bearing diagnostics).  They complement ``D_a``: all
are cheap per-measurement scalars the GUI can trend, and several are used
by the extended examples.

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


def band_energies(
    psd: np.ndarray,
    frequencies: np.ndarray,
    edges: tuple[float, ...],
) -> np.ndarray:
    """Total PSD energy inside each band ``[edges[i], edges[i+1])``.

    Args:
        psd: 1-D PSD vector.
        frequencies: bin frequencies aligned with ``psd``.
        edges: strictly increasing band edges in Hz (``n`` edges define
            ``n - 1`` bands).

    Returns:
        Array of ``len(edges) - 1`` band energies.
    """
    psd_arr = np.asarray(psd, dtype=np.float64)
    freq_arr = np.asarray(frequencies, dtype=np.float64)
    if psd_arr.shape != freq_arr.shape:
        raise ValueError("psd and frequencies must align")
    edge_arr = np.asarray(edges, dtype=np.float64)
    if edge_arr.size < 2 or not np.all(np.diff(edge_arr) > 0):
        raise ValueError("edges must be at least 2 strictly increasing values")
    # Bin each frequency into its band (0 = below the first edge) and
    # accumulate band sums in one pass; bincount index n_bands+1 collects
    # the at-or-above-last-edge tail, dropped with the below-first bucket.
    band = np.searchsorted(edge_arr, freq_arr, side="right")
    sums = np.bincount(band, weights=psd_arr, minlength=edge_arr.size + 1)
    return sums[1 : edge_arr.size]


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


def envelope_spectrum(
    samples: np.ndarray,
    sampling_rate_hz: float,
    carrier_band_hz: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Envelope (demodulated) spectrum — the classical bearing analysis.

    Early bearing defects produce periodic *impacts* that amplitude-
    modulate the machine's high-frequency resonances: the defect's
    repetition rate is invisible in the raw spectrum but dominates the
    spectrum of the signal's *envelope*.  The analysis: band-pass around
    the resonance carrier, take the analytic signal's magnitude (Hilbert
    transform), and return that envelope's spectrum.

    Args:
        samples: raw acceleration block ``(K, 3)`` in g.
        sampling_rate_hz: sampling rate.
        carrier_band_hz: band to demodulate; defaults to the upper half
            of the spectrum (resonance territory).

    Returns:
        ``(frequencies, envelope_psd)`` of the demodulated signal; the
        frequency axis spans DC to Nyquist like the ordinary PSD.
    """
    from scipy.signal import hilbert  # lazy: not on the analyze path

    normalized = normalize_measurement(samples)
    k = normalized.shape[0]
    if carrier_band_hz is None:
        carrier_band_hz = (sampling_rate_hz / 8.0, sampling_rate_hz / 2.0)
    lo, hi = carrier_band_hz
    if not 0 <= lo < hi:
        raise ValueError("carrier_band_hz must satisfy 0 <= low < high")

    # Band-pass via FFT masking (zero-phase, exact band edges).
    spectrum = np.fft.rfft(normalized, axis=0)
    freqs = np.fft.rfftfreq(k, d=1.0 / sampling_rate_hz)
    mask = (freqs >= lo) & (freqs <= hi)
    spectrum[~mask] = 0.0
    band_signal = np.fft.irfft(spectrum, n=k, axis=0)

    # Envelope per axis, combined by magnitude; its mean is removed so
    # the envelope spectrum shows modulation, not the carrier level.
    envelope = np.abs(hilbert(band_signal, axis=0))
    combined = np.linalg.norm(envelope, axis=1)
    combined -= combined.mean()
    env_block = np.stack([combined, np.zeros(k), np.zeros(k)], axis=1)
    return psd_frequencies(k, sampling_rate_hz), psd_feature(env_block)


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
