"""Tests for Hann windowing, smoothing and moving averages (window.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.window import hann_window, moving_average, smooth_hann, smooth_hann_batch


class TestHannWindow:
    def test_matches_paper_formula(self):
        n_h = 24
        window = hann_window(n_h)
        n = np.arange(n_h)
        expected = 0.5 * (1 - np.cos(2 * np.pi * n / (n_h - 1)))
        assert np.allclose(window, expected)

    def test_endpoints_are_zero(self):
        window = hann_window(16)
        assert window[0] == pytest.approx(0.0)
        assert window[-1] == pytest.approx(0.0)

    def test_symmetric(self):
        window = hann_window(25)
        assert np.allclose(window, window[::-1])

    def test_peak_at_center(self):
        window = hann_window(25)
        assert window[12] == pytest.approx(1.0)

    def test_size_one_is_identity_tap(self):
        assert np.allclose(hann_window(1), [1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            hann_window(0)


class TestSmoothHann:
    def test_preserves_constant_series(self):
        series = np.full(200, 3.7)
        assert np.allclose(smooth_hann(series, 24), series, atol=1e-10)

    def test_reduces_noise_variance(self):
        gen = np.random.default_rng(0)
        noisy = gen.normal(0.0, 1.0, size=2000)
        smoothed = smooth_hann(noisy, 24)
        assert smoothed.std() < 0.5 * noisy.std()

    def test_window_size_one_is_identity(self):
        series = np.arange(50, dtype=float)
        out = smooth_hann(series, 1)
        assert np.allclose(out, series)
        assert out is not series  # returns a copy, never aliases input

    def test_output_length_matches_input(self):
        for n in (3, 10, 100, 1023):
            assert smooth_hann(np.ones(n), 24).shape == (n,)

    def test_preserves_mean_level(self):
        gen = np.random.default_rng(1)
        series = 5.0 + gen.normal(0, 0.1, size=500)
        smoothed = smooth_hann(series, 24)
        assert smoothed.mean() == pytest.approx(series.mean(), rel=1e-3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            smooth_hann(np.ones((4, 4)), 3)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            smooth_hann(np.ones(10), 0)

    @given(
        arrays(
            np.float64,
            st.integers(3, 200),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.integers(1, 48),
    )
    @settings(max_examples=50, deadline=None)
    def test_smoothing_stays_within_input_range(self, series, window):
        smoothed = smooth_hann(series, window)
        assert smoothed.min() >= series.min() - 1e-6 * (1 + abs(series.min()))
        assert smoothed.max() <= series.max() + 1e-6 * (1 + abs(series.max()))


class TestSmoothHannBatch:
    """One flat ``np.convolve`` over a tile's padded rows laid end to end
    gives every row the bits of a per-row :func:`smooth_hann`."""

    @pytest.mark.parametrize("k", [3, 4, 7, 1024])
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 24, 2000])
    def test_bit_identical_to_per_row_smoothing(self, k, window):
        rows = np.random.default_rng(k * 31 + window).gamma(2.0, size=(65, k))
        got = smooth_hann_batch(rows, window)
        want = np.stack([smooth_hann(row, window) for row in rows])
        assert got.shape == rows.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_and_short_rows_are_copied(self):
        for rows in (np.zeros((0, 16)), np.arange(6.0).reshape(3, 2)):
            got = smooth_hann_batch(rows, 5)
            assert np.array_equal(got, rows)
            assert got is not rows


class TestMovingAverage:
    def test_window_one_is_identity(self):
        series = np.asarray([1.0, 5.0, 2.0])
        assert np.allclose(moving_average(series, 1), series)

    def test_constant_series_unchanged(self):
        series = np.full(20, 2.0)
        assert np.allclose(moving_average(series, 5), series)

    def test_trailing_average_exact(self):
        series = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        out = moving_average(series, 3)
        expected = [1.0, 1.5, 2.0, 3.0, 4.0]
        assert np.allclose(out, expected)

    def test_no_future_leakage(self):
        """Changing a later point must not affect earlier outputs."""
        series = np.asarray([1.0, 2.0, 3.0, 4.0])
        base = moving_average(series, 2)
        series2 = series.copy()
        series2[-1] = 100.0
        modified = moving_average(series2, 2)
        assert np.allclose(base[:-1], modified[:-1])

    def test_2d_averages_along_axis0(self):
        series = np.stack([np.arange(5.0), np.arange(5.0) * 2], axis=1)
        out = moving_average(series, 2)
        assert out.shape == series.shape
        assert np.allclose(out[:, 1], 2 * out[:, 0])

    def test_empty_input(self):
        out = moving_average(np.empty(0), 3)
        assert out.shape == (0,)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(5), 0)

    @given(
        arrays(np.float64, st.integers(1, 100), elements=st.floats(-1e3, 1e3, allow_nan=False)),
        st.integers(1, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_bounded_by_running_extremes(self, series, window):
        out = moving_average(series, window)
        running_min = np.minimum.accumulate(series)
        running_max = np.maximum.accumulate(series)
        assert (out >= running_min - 1e-9 * (1 + np.abs(running_min))).all()
        assert (out <= running_max + 1e-9 * (1 + np.abs(running_max))).all()
