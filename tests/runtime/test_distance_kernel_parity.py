"""Bit-for-bit parity: the packed Algorithm 1 kernel vs the scalar path.

The batched distance kernel (:func:`packed_harmonic_distances`) promises
*bit-identical* results to a per-feature loop over
:func:`peak_harmonic_distance` — not merely close ones — because the
analysis layer's parity contract (and the chaos zero-fault suite) compare
pipeline outputs with ``np.array_equal``.  These regression tests pin the
promise down on the shapes where vectorized rewrites typically drift:
empty peak sets, single peaks, duplicated frequencies, ties exactly at
the match-tolerance boundary, and float32 inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import (
    PackedPeaks,
    pack_peaks,
    packed_harmonic_distances,
    peak_harmonic_distance,
    peak_harmonic_distances,
)
from repro.core.peaks import HarmonicPeaks


def scalar_loop(rows, reference, tol):
    return np.asarray(
        [peak_harmonic_distance(r, reference, match_tolerance_hz=tol) for r in rows]
    )


def assert_bit_identical(rows, reference, tol=16.0):
    """Assert kernel == scalar loop, bit for bit, and return the result."""
    batched = packed_harmonic_distances(
        pack_peaks(rows), reference, match_tolerance_hz=tol
    )
    expected = scalar_loop(rows, reference, tol)
    assert batched.dtype == np.float64
    assert batched.shape == expected.shape
    assert np.array_equal(batched, expected)
    return batched


def make_peaks(freqs, vals=None, dtype=np.float64):
    freqs = np.asarray(freqs, dtype=dtype)
    if vals is None:
        vals = np.ones_like(freqs)
    return HarmonicPeaks(freqs, np.asarray(vals, dtype=dtype))


EMPTY = make_peaks([])


class TestEmptyPeakSets:
    def test_no_rows(self):
        out = packed_harmonic_distances(pack_peaks([]), make_peaks([50.0]))
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_empty_rows_and_empty_reference(self):
        out = assert_bit_identical([EMPTY, EMPTY], EMPTY)
        assert np.array_equal(out, [0.0, 0.0])

    def test_empty_rows_nonempty_reference(self):
        """Empty features are charged the reference's residual amplitudes."""
        reference = make_peaks([40.0, 80.0], [3.0, 6.0])
        out = assert_bit_identical([EMPTY, EMPTY], reference)
        # Residual only: mean of the normalized exemplar amplitudes.
        assert np.array_equal(out, [(3.0 / 6.0 + 6.0 / 6.0) / 2.0] * 2)

    def test_nonempty_rows_empty_reference(self):
        rows = [make_peaks([10.0, 20.0], [1.0, 2.0]), make_peaks([5.0], [4.0])]
        assert_bit_identical(rows, EMPTY)

    def test_mixed_empty_and_nonempty_rows(self):
        rows = [EMPTY, make_peaks([30.0], [2.0]), EMPTY, make_peaks([10.0, 60.0])]
        assert_bit_identical(rows, make_peaks([30.0, 62.0], [1.0, 5.0]))

    def test_zero_amplitudes_clamp_pmax(self):
        """All-zero amplitudes hit the ``p_max <= 0 → 1.0`` clamp branch."""
        rows = [make_peaks([10.0, 20.0], [0.0, 0.0])]
        assert_bit_identical(rows, make_peaks([10.0], [0.0]))


class TestSinglePeak:
    def test_match_within_tolerance(self):
        out = assert_bit_identical(
            [make_peaks([100.0], [5.0])], make_peaks([104.0], [4.0]), tol=16.0
        )
        assert out[0] > 0.0

    def test_no_match_outside_tolerance(self):
        assert_bit_identical(
            [make_peaks([100.0], [5.0])], make_peaks([400.0], [4.0]), tol=16.0
        )

    def test_exact_frequency_match(self):
        out = assert_bit_identical(
            [make_peaks([100.0], [5.0])], make_peaks([100.0], [5.0])
        )
        assert out[0] == 0.0

    def test_boundary_gap_is_unmatched(self):
        """Algorithm 1 matches on ``gap < tol`` strictly: a physical gap of
        exactly the tolerance stays unmatched on both paths."""
        rows = [make_peaks([116.0], [5.0])]
        reference = make_peaks([100.0], [5.0])
        out = assert_bit_identical(rows, reference, tol=16.0)
        # Unmatched on both sides: own magnitude plus the residual.
        f_max, p_max = 116.0, 5.0
        expected = (np.hypot(116.0 / f_max, 5.0 / p_max) + 5.0 / p_max) / 2.0
        assert out[0] == expected


class TestDuplicateFrequencies:
    def test_rows_duplicate_reference_grid(self):
        """Rows on exactly the reference's frequency grid — every peak is
        an exact-frequency duplicate — still produce identical floats."""
        reference = make_peaks([20.0, 40.0, 60.0], [1.0, 3.0, 2.0])
        rows = [
            make_peaks([20.0, 40.0, 60.0], [1.0, 3.0, 2.0]),
            make_peaks([20.0, 40.0, 60.0], [2.0, 1.0, 5.0]),
            make_peaks([40.0], [3.0]),
        ]
        out = assert_bit_identical(rows, reference)
        assert out[0] == 0.0

    def test_identical_rows_share_result(self):
        rows = [make_peaks([15.0, 33.0], [2.0, 4.0])] * 5
        out = assert_bit_identical(rows, make_peaks([14.0, 35.0], [1.0, 6.0]))
        assert np.all(out == out[0])

    def test_competing_rows_do_not_interact(self):
        """Consumption state is per row: many rows matching the same
        exemplar peak must not consume it for each other."""
        reference = make_peaks([100.0], [4.0])
        rows = [make_peaks([99.0 + 0.1 * i], [3.0]) for i in range(8)]
        assert_bit_identical(rows, reference)


class TestToleranceBoundaryTies:
    def test_equidistant_neighbours_prefer_left(self):
        """A peak exactly midway between two free exemplar peaks takes the
        left one (the scalar scan visits left first and only replaces it
        on a strictly smaller right gap)."""
        reference = make_peaks([90.0, 110.0], [2.0, 8.0])
        rows = [make_peaks([100.0], [5.0])]
        out = assert_bit_identical(rows, reference, tol=50.0)
        f_max, p_max = 110.0, 8.0
        matched_left = np.hypot(100.0 / f_max - 90.0 / f_max, 5.0 / p_max - 2.0 / p_max)
        expected = (matched_left + 8.0 / p_max) / 2.0
        assert out[0] == expected

    def test_tie_then_forced_right(self):
        """After the tie consumes the left peak, the next equidistant peak
        must fall through to the right neighbour on both paths."""
        reference = make_peaks([90.0, 110.0], [2.0, 8.0])
        rows = [make_peaks([100.0, 100.5], [5.0, 1.0])]
        assert_bit_identical(rows, reference, tol=50.0)

    def test_equidistant_tie_goes_to_the_neighbour_reached_first(self):
        """The scalar scan steps outward one slot per side per pass: with
        a consumed peak between the target and its free left neighbour,
        the equidistant right neighbour is reached first and keeps the
        tie."""
        reference = make_peaks([8.0, 9.0, 12.0, 16.0], [1.0, 0.5, 0.2, 0.1])
        rows = [make_peaks([9.0, 10.0], [0.5, 0.3])]
        out = assert_bit_identical(rows, reference)
        f_max, p_max = 16.0, 1.0
        matched_right = np.hypot(10.0 / f_max - 12.0 / f_max, 0.3 - 0.2)
        residual = (1.0 + 0.1) / p_max
        assert out[0] == (0.0 + matched_right + residual) / 4.0

    def test_all_consumed_reference(self):
        """More row peaks than exemplar peaks: the surplus must see an
        exhausted consumed mask identically."""
        reference = make_peaks([50.0], [1.0])
        rows = [make_peaks([49.0, 50.0, 51.0], [1.0, 2.0, 3.0])]
        assert_bit_identical(rows, reference, tol=100.0)


class TestDtypes:
    def test_float32_inputs_match_float64_path(self):
        """float32 inputs are promoted to float64 on construction; the
        kernel output is bit-identical to building from the (exactly
        representable) float64 values."""
        freqs32 = np.asarray([10.5, 33.25, 101.125], dtype=np.float32)
        vals32 = np.asarray([1.5, 0.25, 7.0], dtype=np.float32)
        rows32 = [make_peaks(freqs32, vals32, dtype=np.float32)]
        rows64 = [make_peaks(freqs32.astype(np.float64), vals32.astype(np.float64))]
        reference = make_peaks([11.0, 100.0], [2.0, 3.0])
        out32 = assert_bit_identical(rows32, reference)
        out64 = assert_bit_identical(rows64, reference)
        assert np.array_equal(out32, out64)

    def test_packed_storage_is_float64(self):
        packed = pack_peaks([make_peaks([1.0], dtype=np.float32)])
        assert packed.frequencies.dtype == np.float64
        assert packed.values.dtype == np.float64
        assert packed.counts.dtype == np.intp


class TestPackedPeaksValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PackedPeaks(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2, dtype=int))

    def test_counts_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PackedPeaks(np.zeros((1, 2)), np.zeros((1, 2)), np.asarray([3]))

    def test_row_roundtrip(self):
        rows = [make_peaks([5.0, 9.0], [1.0, 2.0]), EMPTY, make_peaks([7.0], [4.0])]
        packed = pack_peaks(rows)
        for i, original in enumerate(rows):
            unpacked = packed.row(i)
            assert np.array_equal(unpacked.frequencies, original.frequencies)
            assert np.array_equal(unpacked.values, original.values)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            packed_harmonic_distances(pack_peaks([EMPTY]), EMPTY, match_tolerance_hz=0.0)


class TestSeededSweep:
    def test_random_ragged_batches(self):
        """Deterministic wide sweep: ragged widths 0–12, clustered
        frequencies (forcing contested matches), several tolerances."""
        rng = np.random.default_rng(42)
        for tol in (0.5, 4.0, 16.0, 250.0):
            rows = []
            for _ in range(60):
                n = int(rng.integers(0, 13))
                freqs = np.sort(rng.choice(np.arange(1.0, 400.0, 0.5), n, replace=False))
                rows.append(make_peaks(freqs, rng.uniform(0.0, 10.0, n)))
            n_ref = int(rng.integers(0, 9))
            ref_freqs = np.sort(rng.choice(np.arange(1.0, 400.0, 0.5), n_ref, replace=False))
            reference = make_peaks(ref_freqs, rng.uniform(0.0, 10.0, n_ref))
            assert_bit_identical(rows, reference, tol=tol)

    def test_public_wrapper_is_the_kernel(self):
        rng = np.random.default_rng(7)
        rows = [
            make_peaks(np.sort(rng.uniform(1, 200, 5)), rng.uniform(0, 5, 5))
            for _ in range(10)
        ]
        reference = make_peaks(np.sort(rng.uniform(1, 200, 4)), rng.uniform(0, 5, 4))
        via_wrapper = peak_harmonic_distances(rows, reference)
        via_kernel = packed_harmonic_distances(pack_peaks(rows), reference)
        assert np.array_equal(via_wrapper, via_kernel)
