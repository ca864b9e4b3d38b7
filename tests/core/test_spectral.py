"""Tests for classical condition indicators (spectral.py)."""

import numpy as np
import pytest

from repro.core.features import psd_feature, psd_frequencies
from repro.core.spectral import (
    condition_indicators,
    crest_factor,
    kurtosis,
    peak_to_peak,
    spectral_centroid,
    spectral_entropy,
)
from repro.simulation.signal import VibrationSynthesizer
from tests.conftest import make_sine_block

FS = 4000.0
K = 1024


class TestCrestFactor:
    def test_sinusoid_is_sqrt_two(self):
        block = make_sine_block(amplitude=1.0, num_samples=4000)
        # Combined 3-axis magnitude of proportional axes is a rectified
        # sinusoid; its crest factor is sqrt(2).
        assert crest_factor(block) == pytest.approx(np.sqrt(2.0), rel=0.02)

    def test_impulsive_signal_has_higher_crest(self):
        gen = np.random.default_rng(0)
        smooth = gen.normal(0, 1, size=(2048, 3))
        impulsive = smooth.copy()
        impulsive[100] += 30.0
        assert crest_factor(impulsive) > 2 * crest_factor(smooth)

    def test_constant_block_is_zero(self):
        assert crest_factor(np.ones((64, 3))) == 0.0


class TestKurtosis:
    def test_gaussian_near_zero(self):
        gen = np.random.default_rng(1)
        block = gen.normal(0, 1, size=(20000, 3))
        assert abs(kurtosis(block)) < 0.1

    def test_impulsive_positive(self):
        gen = np.random.default_rng(2)
        block = gen.normal(0, 0.1, size=(4096, 3))
        block[::500] += 5.0
        assert kurtosis(block) > 3.0

    def test_sinusoid_negative(self):
        block = make_sine_block(amplitude=1.0, noise=0.0, num_samples=4000)
        assert kurtosis(block) < 0.0

    def test_constant_block_is_zero(self):
        assert kurtosis(np.full((64, 3), 2.0)) == 0.0


class TestPeakToPeak:
    def test_sinusoid_swing(self):
        block = make_sine_block(amplitude=0.5, noise=0.0, num_samples=4000)
        assert peak_to_peak(block) == pytest.approx(1.0, rel=0.02)

    def test_offset_invariant(self):
        block = make_sine_block(amplitude=0.5, offset=(3.0, -2.0, 5.0))
        base = make_sine_block(amplitude=0.5, offset=(0.0, 0.0, 0.0))
        assert peak_to_peak(block) == pytest.approx(peak_to_peak(base))


class TestSpectralCentroid:
    def test_tone_centroid_at_tone(self):
        block = make_sine_block(freq_hz=900.0, amplitude=1.0, noise=0.001)
        psd = psd_feature(block)
        freqs = psd_frequencies(K, FS)
        assert spectral_centroid(psd, freqs) == pytest.approx(900.0, abs=60.0)

    def test_degradation_raises_centroid(self):
        gen = np.random.default_rng(4)
        synth = VibrationSynthesizer()
        freqs = psd_frequencies(K, FS)
        healthy = np.mean(
            [
                spectral_centroid(psd_feature(synth.synthesize(0.05, K, FS, gen)), freqs)
                for _ in range(8)
            ]
        )
        worn = np.mean(
            [
                spectral_centroid(psd_feature(synth.synthesize(1.0, K, FS, gen)), freqs)
                for _ in range(8)
            ]
        )
        assert worn > healthy

    def test_zero_psd(self):
        assert spectral_centroid(np.zeros(8), np.arange(8.0)) == 0.0


class TestSpectralEntropy:
    def test_bounds(self):
        flat = spectral_entropy(np.ones(256))
        peaky = np.zeros(256)
        peaky[10] = 1.0
        concentrated = spectral_entropy(peaky)
        assert flat == pytest.approx(1.0, abs=1e-9)
        assert concentrated == pytest.approx(0.0, abs=1e-9)

    def test_harmonic_spectrum_below_noise_spectrum(self):
        tone = psd_feature(make_sine_block(amplitude=1.0, noise=0.001))
        gen = np.random.default_rng(5)
        noise = psd_feature(gen.normal(0, 1, size=(K, 3)))
        assert spectral_entropy(tone) < spectral_entropy(noise)

    def test_degenerate_inputs(self):
        assert spectral_entropy(np.zeros(8)) == 0.0
        assert spectral_entropy(np.ones(1)) == 0.0


class TestConditionIndicators:
    def test_bundle_is_complete_and_finite(self):
        block = make_sine_block(noise=0.05)
        bundle = condition_indicators(block, FS)
        values = bundle.as_dict()
        assert set(values) == {
            "rms",
            "crest_factor",
            "kurtosis",
            "peak_to_peak",
            "spectral_centroid_hz",
            "spectral_entropy",
            "high_frequency_energy",
        }
        assert all(np.isfinite(v) for v in values.values())

    def test_indicators_track_degradation(self):
        gen = np.random.default_rng(6)
        synth = VibrationSynthesizer()

        def mean_bundle(wear):
            bundles = [
                condition_indicators(synth.synthesize(wear, K, FS, gen), FS)
                for _ in range(6)
            ]
            return {
                key: np.mean([b.as_dict()[key] for b in bundles])
                for key in bundles[0].as_dict()
            }

        healthy = mean_bundle(0.05)
        worn = mean_bundle(1.0)
        assert worn["rms"] > healthy["rms"]
        assert worn["high_frequency_energy"] > healthy["high_frequency_energy"]
        assert worn["peak_to_peak"] > healthy["peak_to_peak"]
