"""Physics-inspired rotating-machinery vibration synthesis.

A vacuum pump's vibration signature, as seen through the suction connector
(Fig. 2 of the paper), is dominated by

* the motor rotation fundamental and its harmonics,
* bearing defect tones at non-integer multiples of the rotation frequency
  (outer/inner race passing frequencies), which emerge and grow as the
  bearing wears, and
* broadband noise whose high-frequency content grows with mechanical
  degradation — the paper explicitly relies on this ("equipment in
  abnormal condition tends to give off high-frequency noises").

The synthesizer reproduces these effects, plus the amplitude fluctuation
growth from Zone BC to Zone D visible in Fig. 10, so that every analysis
code path (harmonic peaks, peak harmonic distance, zone classification,
RANSAC trends) is exercised on inputs with the same spectral structure the
paper's plots show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MachineProfile:
    """Static vibro-acoustic profile of one pump model.

    Attributes:
        rotation_hz: motor rotation fundamental frequency.
        num_harmonics: how many rotation harmonics to synthesize.
        harmonic_amplitude_g: amplitude of the fundamental, in g.
        harmonic_decay: per-order geometric amplitude decay of harmonics.
        bearing_tone_ratios: bearing defect frequencies as multiples of
            the rotation frequency (defaults model outer/inner race and
            ball-spin passing frequencies of a generic bearing).
        bearing_tone_amplitude_g: full-wear amplitude of defect tones.
        noise_floor_g: healthy broadband noise RMS per axis.
        hf_noise_gain_g: extra high-frequency noise RMS at full wear.
        hf_corner_hz: corner frequency above which degradation noise is
            injected.
        spall_onset_wear: wear level at which late-stage bearing spalling
            starts populating harmonics of the defect tones.
        rotation_droop: relative slow-down of the rotation speed at full
            wear (bearing friction loads the motor).  This makes every
            harmonic's frequency shift progressively with wear, so the
            peak-matched distance grows roughly linearly across the whole
            wear range instead of saturating once the noise peaks appear.
        axis_coupling: per-axis multipliers for how strongly vibration
            couples into x, y, z at the sensor mount.
    """

    rotation_hz: float = 29.5
    num_harmonics: int = 10
    harmonic_amplitude_g: float = 0.35
    harmonic_decay: float = 0.75
    bearing_tone_ratios: tuple[float, ...] = (3.58, 5.42, 2.37)
    bearing_tone_amplitude_g: float = 0.5
    noise_floor_g: float = 0.02
    hf_noise_gain_g: float = 0.25
    hf_corner_hz: float = 900.0
    rotation_droop: float = 0.06
    spall_onset_wear: float = 0.8
    axis_coupling: tuple[float, float, float] = (1.0, 0.8, 0.55)

    def __post_init__(self) -> None:
        if self.rotation_hz <= 0:
            raise ValueError("rotation_hz must be positive")
        if self.num_harmonics < 1:
            raise ValueError("num_harmonics must be positive")
        if not 0 < self.harmonic_decay <= 1:
            raise ValueError("harmonic_decay must be in (0, 1]")


class VibrationSynthesizer:
    """Generates tri-axial acceleration blocks for a given wear level."""

    def __init__(self, profile: MachineProfile | None = None):
        self.profile = profile or MachineProfile()

    def synthesize(
        self,
        wear: float,
        num_samples: int,
        sampling_rate_hz: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One measurement block of true (pre-sensor) acceleration.

        Args:
            wear: degradation level; 0 healthy, 1 failure (values above 1
                keep degrading further).
            num_samples: block length ``K``.
            sampling_rate_hz: sampling rate; tones above Nyquist alias
                are simply dropped.
            rng: entropy source (sample-level phase and noise).

        Returns:
            ``(K, 3)`` float array of acceleration in g, gravity excluded
            (the sensor model adds gravity and offsets).
        """
        if wear < 0:
            raise ValueError("wear must be non-negative")
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        if sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")

        p = self.profile
        t = np.arange(num_samples) / sampling_rate_hz
        nyquist = sampling_rate_hz / 2.0
        mono = np.zeros(num_samples)

        # Amplitude fluctuation grows with degradation (Fig. 10: variance
        # of the PSD grows from Zone BC to Zone D).
        fluctuation = float(rng.lognormal(mean=0.0, sigma=0.08 + 0.45 * min(wear, 2.0)))

        # Rotation harmonics: amplitudes grow mildly with wear (looser
        # mounts and imbalance), higher orders grow faster; the rotation
        # speed droops slightly as friction rises, shifting every
        # harmonic's frequency in proportion to its order.
        effective_rotation = p.rotation_hz * (1.0 - p.rotation_droop * min(wear, 2.0))
        base_amp = p.harmonic_amplitude_g * fluctuation
        for order in range(1, p.num_harmonics + 1):
            freq = order * effective_rotation
            if freq >= nyquist:
                break
            growth = 1.0 + wear * (0.4 + 0.25 * order)
            amp = base_amp * p.harmonic_decay ** (order - 1) * growth
            phase = rng.uniform(0, 2 * np.pi)
            mono += amp * np.sin(2 * np.pi * freq * t + phase)

        # Bearing defect tones: essentially absent when healthy, growing
        # super-linearly with wear.
        tone_amp = p.bearing_tone_amplitude_g * (wear**1.5) * fluctuation
        for ratio in p.bearing_tone_ratios:
            freq = ratio * effective_rotation
            if freq >= nyquist or tone_amp <= 0:
                continue
            phase = rng.uniform(0, 2 * np.pi)
            mono += tone_amp * np.sin(2 * np.pi * freq * t + phase)

        # Late-stage spalling: past the damage onset, harmonics of the
        # defect tones spread up the spectrum (the classic bearing
        # "haystack"), giving Zone D its distinct high-frequency peak
        # population.
        onset = max(wear - p.spall_onset_wear, 0.0)
        if onset > 0:
            spall_amp = p.bearing_tone_amplitude_g * 6.0 * onset * fluctuation
            for ratio in p.bearing_tone_ratios:
                for harmonic in (2, 3, 4, 5):
                    freq = harmonic * ratio * effective_rotation
                    if freq >= nyquist:
                        continue
                    phase = rng.uniform(0, 2 * np.pi)
                    mono += spall_amp / harmonic * np.sin(2 * np.pi * freq * t + phase)

        # Broadband noise: white floor plus degradation-driven
        # high-frequency noise shaped by a first-order high-pass.
        noise = rng.normal(0.0, p.noise_floor_g, size=num_samples)
        hf_sigma = p.hf_noise_gain_g * wear**2 * fluctuation
        if hf_sigma > 0:
            white = rng.normal(0.0, hf_sigma, size=num_samples)
            noise += _highpass(white, p.hf_corner_hz, sampling_rate_hz)
        mono += noise

        coupling = np.asarray(p.axis_coupling, dtype=np.float64)
        # Small per-axis independent noise so axes are not perfectly
        # correlated copies of one another.
        block = mono[:, None] * coupling[None, :]
        block += rng.normal(0.0, p.noise_floor_g * 0.5, size=(num_samples, 3))
        return block


def _highpass(signal: np.ndarray, corner_hz: float, sampling_rate_hz: float) -> np.ndarray:
    """First-order high-pass filter (discrete RC), preserving shape.

    Implemented as the IIR recurrence ``y[n] = a*(y[n-1] + x[n] - x[n-1])``
    evaluated with ``scipy.signal.lfilter`` so synthesizing large fleets
    stays fast.
    """
    from scipy.signal import lfilter  # lazy: not on the analyze path

    if corner_hz <= 0:
        return signal.copy()
    dt = 1.0 / sampling_rate_hz
    rc = 1.0 / (2 * np.pi * corner_hz)
    alpha = rc / (rc + dt)
    return lfilter([alpha, -alpha], [1.0, -alpha], signal)
