"""Distance metrics between vibration features.

The paper's key metric is the *peak harmonic distance* (Algorithm 1): an
approximation of the Euclidean distance between two harmonic peak features
that first aligns peaks by frequency, accumulates the Euclidean distance of
matched ``(frequency, value)`` pairs, and charges unmatched peaks their full
magnitude.  Because frequencies are normalized by the global maximum before
matching, a disagreement at a high frequency costs more than the same
disagreement at a low frequency — deliberately, since degrading equipment
gives off high-frequency noise.

Two baseline metrics used in the paper's comparison (Figs. 12–14) are also
provided: plain Euclidean distance between PSD vectors and the Mahalanobis
distance with a covariance estimated from reference (Zone A) samples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.peaks import DEFAULT_WINDOW_SIZE, HarmonicPeaks


def peak_harmonic_distance(
    peaks_i: HarmonicPeaks,
    peaks_j: HarmonicPeaks,
    match_tolerance_hz: float = float(DEFAULT_WINDOW_SIZE),
) -> float:
    """Peak harmonic distance ``D_ij`` between two peak features (Algorithm 1).

    Both features are normalized by the shared maxima ``p_max`` and
    ``f_max`` so the result is scale free.  For every peak of ``peaks_i``
    the closest peak of ``peaks_j`` (by frequency, via binary search) is
    located; if the physical frequency gap is below ``match_tolerance_hz``
    (the paper reuses the Hann window size ``n_h`` here) the pair
    contributes the Euclidean distance between the two normalized
    ``(f, p)`` points and the matched peak is consumed, otherwise the
    unmatched peak contributes its own normalized magnitude.  Peaks of
    ``peaks_j`` left unconsumed contribute their normalized amplitudes, so
    the metric is symmetric in spirit: extra energy on either side is
    penalized.

    Exact symmetry holds when every peak pairs up (same peak count, each
    within the match tolerance of its partner) — the property tests pin
    this down — but not in general: following the paper's Algorithm 1, an
    unmatched ``peaks_i`` peak is charged its full normalized ``(f, p)``
    magnitude while an unmatched ``peaks_j`` peak is charged its
    amplitude only, and the greedy matching itself is order-dependent
    when several peaks compete for the same partner.

    Args:
        peaks_i: first harmonic peak feature.
        peaks_j: second harmonic peak feature (typically the Zone A
            exemplar when computing ``D_a``).
        match_tolerance_hz: maximum physical frequency gap for two peaks to
            be considered the same harmonic.

    Returns:
        Non-negative dissimilarity; 0.0 when both features are empty or
        identical.
    """
    if match_tolerance_hz <= 0:
        raise ValueError("match_tolerance_hz must be positive")
    n_i, n_j = len(peaks_i), len(peaks_j)
    if n_i == 0 and n_j == 0:
        return 0.0

    p_max = max(peaks_i.max_value, peaks_j.max_value)
    f_max = max(peaks_i.max_frequency, peaks_j.max_frequency)
    if p_max <= 0:
        p_max = 1.0
    if f_max <= 0:
        f_max = 1.0

    fi = peaks_i.frequencies / f_max
    pi = peaks_i.values / p_max
    fj = peaks_j.frequencies / f_max
    pj = peaks_j.values / p_max

    # The matching loop runs on native floats (list indexing + bisect)
    # purely for speed — every arithmetic operation, including np.hypot,
    # sees the same IEEE doubles as an ndarray version would, so the
    # result is bit-identical.
    fi_l, pi_l = fi.tolist(), pi.tolist()
    fj_l, pj_l = fj.tolist(), pj.tolist()

    consumed = np.zeros(n_j, dtype=bool)
    consumed_l = consumed.tolist()
    total = 0.0
    count = 0
    for idx in range(n_i):
        f = fi_l[idx]
        j_star = _nearest_unconsumed(fj_l, consumed_l, f)
        if j_star >= 0 and abs(f - fj_l[j_star]) * f_max < match_tolerance_hz:
            gap = np.hypot(f - fj_l[j_star], pi_l[idx] - pj_l[j_star])
            consumed[j_star] = True
            consumed_l[j_star] = True
        else:
            gap = float(np.hypot(f, pi_l[idx]))
        total += gap
        count += 1

    residual = pj[~consumed]
    total += float(residual.sum())
    count += int(residual.size)
    if count == 0:
        return 0.0
    return total / count


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


def pack_peaks(peaks_list: list[HarmonicPeaks]) -> PackedPeaks:
    """Pack ragged peak features into padded ``(N, P)`` matrices.

    ``P`` is the widest feature in the batch (0 rows pack to width 0).
    """
    counts = np.asarray([len(p) for p in peaks_list], dtype=np.intp)
    width = int(counts.max()) if counts.size else 0
    freqs = np.zeros((len(peaks_list), width))
    vals = np.zeros((len(peaks_list), width))
    for i, peaks in enumerate(peaks_list):
        n = counts[i]
        freqs[i, :n] = peaks.frequencies
        vals[i, :n] = peaks.values
    return PackedPeaks(freqs, vals, counts)


def packed_harmonic_distances(
    packed: PackedPeaks,
    reference: HarmonicPeaks,
    match_tolerance_hz: float = float(DEFAULT_WINDOW_SIZE),
) -> np.ndarray:
    """Batched Algorithm 1: ``D_a`` of every packed row from ``reference``.

    Bit-identical to ``[peak_harmonic_distance(row, reference) for row in
    rows]`` — the contract the runtime parity and property tests enforce —
    but computed in vectorized passes over the whole batch:

    * per-row normalization maxima come from masked reductions;
    * the greedy nearest-unconsumed matching loops over *peak rank* only
      (at most ``P`` iterations): each iteration resolves the ``k``-th
      peak of every row at once, replicating the scalar search's
      bisect-and-expand choice (nearest unconsumed neighbour on each
      side, left wins ties) with index arithmetic on an ``(N, n_j)``
      consumed mask;
    * unmatched-exemplar residuals are compacted per row and summed in
      groups of equal residual count, so every row's residual sees the
      same pairwise-summation tree as the scalar path's
      ``residual.sum()``.

    Args:
        packed: packed peak features (one row per measurement).
        reference: the shared exemplar feature.
        match_tolerance_hz: maximum physical frequency gap for a match.

    Returns:
        ``(N,)`` float64 distances aligned with the packed rows.
    """
    if match_tolerance_hz <= 0:
        raise ValueError("match_tolerance_hz must be positive")
    n_rows = len(packed)
    if n_rows == 0:
        return np.empty(0)
    n_j = len(reference)
    counts = packed.counts
    valid = packed.valid

    # Per-row shared maxima, exactly as the scalar path computes them:
    # max over each feature's own peaks (0.0 when empty), combined with
    # the reference maxima, clamped to 1.0 when non-positive.
    if packed.frequencies.shape[1]:
        row_fmax = np.where(valid, packed.frequencies, -np.inf).max(axis=1)
        row_pmax = np.where(valid, packed.values, -np.inf).max(axis=1)
        row_fmax = np.where(counts > 0, row_fmax, 0.0)
        row_pmax = np.where(counts > 0, row_pmax, 0.0)
    else:
        row_fmax = np.zeros(n_rows)
        row_pmax = np.zeros(n_rows)
    p_max = np.maximum(row_pmax, reference.max_value)
    f_max = np.maximum(row_fmax, reference.max_frequency)
    p_max = np.where(p_max <= 0, 1.0, p_max)
    f_max = np.where(f_max <= 0, 1.0, f_max)

    fi = packed.frequencies / f_max[:, None]
    pi = packed.values / p_max[:, None]
    fj = reference.frequencies[None, :] / f_max[:, None]
    pj = reference.values[None, :] / p_max[:, None]

    consumed = np.zeros((n_rows, n_j), dtype=bool)
    total = np.zeros(n_rows)
    col = np.arange(n_j)
    max_rank = int(counts.max()) if counts.size else 0
    for k in range(max_rank):
        act = counts > k
        f = fi[:, k]
        p = pi[:, k]
        if n_j:
            # bisect_left on the sorted normalized exemplar row.
            pos = (fj < f[:, None]).sum(axis=1)
            free = ~consumed
            # Nearest unconsumed neighbour on each side of the insertion
            # point: the largest free index below it, the smallest at or
            # above it — the exact pair the scalar expand-outward scan
            # stops at.
            left_idx = np.where(free & (col[None, :] < pos[:, None]), col, -1).max(axis=1)
            right_idx = np.where(free & (col[None, :] >= pos[:, None]), col, n_j).min(axis=1)
            has_left = left_idx >= 0
            has_right = right_idx < n_j
            fj_left = np.take_along_axis(
                fj, np.maximum(left_idx, 0)[:, None], axis=1
            )[:, 0]
            fj_right = np.take_along_axis(
                fj, np.minimum(right_idx, n_j - 1)[:, None], axis=1
            )[:, 0]
            gap_left = np.where(has_left, np.abs(f - fj_left), np.inf)
            gap_right = np.where(has_right, np.abs(f - fj_right), np.inf)
            # The scalar scan visits the left candidate first and only
            # lets the right one replace it on a strictly smaller gap.
            use_left = has_left & (~has_right | ~(gap_right < gap_left))
            j_star = np.where(use_left, left_idx, right_idx)
            has_any = has_left | has_right
            j_safe = np.clip(j_star, 0, n_j - 1)[:, None]
            fj_star = np.take_along_axis(fj, j_safe, axis=1)[:, 0]
            pj_star = np.take_along_axis(pj, j_safe, axis=1)[:, 0]
            matched = act & has_any & (np.abs(f - fj_star) * f_max < match_tolerance_hz)
            gap = np.where(
                matched,
                np.hypot(f - fj_star, p - pj_star),
                np.hypot(f, p),
            )
            rows_hit = np.nonzero(matched)[0]
            consumed[rows_hit, j_star[rows_hit]] = True
        else:
            gap = np.hypot(f, p)
        total[act] += gap[act]

    # Residual: unconsumed exemplar peaks charged their normalized
    # amplitude.  Rows are compacted (stable order) and summed grouped by
    # residual length so each group's np.sum reduction is bit-identical
    # to the scalar path's sum over the same compacted 1-D array.
    if n_j:
        unconsumed = ~consumed
        residual_counts = unconsumed.sum(axis=1)
        if residual_counts.any():
            order = np.argsort(consumed, axis=1, kind="stable")
            compact_pj = np.take_along_axis(pj, order, axis=1)
            for m in np.unique(residual_counts):
                if m == 0:
                    continue
                rows_m = residual_counts == m
                total[rows_m] += compact_pj[rows_m, :m].sum(axis=1)
    else:
        residual_counts = np.zeros(n_rows, dtype=np.intp)

    denom = counts + residual_counts
    out = np.zeros(n_rows)
    np.divide(total, denom, out=out, where=denom > 0)
    return out


def peak_harmonic_distances(
    peaks_list: list[HarmonicPeaks],
    reference: HarmonicPeaks,
    match_tolerance_hz: float = float(DEFAULT_WINDOW_SIZE),
) -> np.ndarray:
    """``D_a`` of every feature in ``peaks_list`` from a shared reference.

    Semantically ``[peak_harmonic_distance(p, reference) for p in
    peaks_list]`` and bit-identical to that loop, but executed through
    the padded-array kernel (:func:`packed_harmonic_distances`) so the
    whole batch runs in vectorized numpy passes — the single entry point
    batched callers and the memoization layer wrap.

    Args:
        peaks_list: harmonic peak features, one per measurement.
        reference: the shared exemplar (typically the Zone A baseline).
        match_tolerance_hz: forwarded to :func:`peak_harmonic_distance`.

    Returns:
        Float array of distances aligned with ``peaks_list``.
    """
    return packed_harmonic_distances(
        pack_peaks(peaks_list), reference, match_tolerance_hz=match_tolerance_hz
    )


def _nearest_unconsumed(
    sorted_freqs: list[float], consumed: list[bool], target: float
) -> int:
    """Index of the unconsumed frequency nearest to ``target``, or -1.

    ``sorted_freqs`` is increasing (guaranteed by HarmonicPeaks), so a
    binary search locates the insertion point and the nearest unconsumed
    neighbour is found by expanding left/right from it.
    """
    n = len(sorted_freqs)
    if n == 0 or all(consumed):
        return -1
    pos = bisect_left(sorted_freqs, target)
    left = pos - 1
    right = pos
    best = -1
    best_gap = float("inf")
    while left >= 0 or right < n:
        if left >= 0:
            if not consumed[left]:
                gap = abs(sorted_freqs[left] - target)
                if gap < best_gap:
                    best, best_gap = left, gap
                left = -1  # nearest unconsumed on the left found
            else:
                left -= 1
        if right < n:
            if not consumed[right]:
                gap = abs(sorted_freqs[right] - target)
                if gap < best_gap:
                    best, best_gap = right, gap
                right = n  # nearest unconsumed on the right found
            else:
                right += 1
    return best


def euclidean_distance(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """Plain Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(vec_a, dtype=np.float64)
    b = np.asarray(vec_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


class MahalanobisMetric:
    """Mahalanobis distance with covariance learned from reference samples.

    With 1024-dimensional PSD vectors and a handful of training samples the
    sample covariance is singular, so a shrinkage regularizer blends it
    with its diagonal; this mirrors the practical difficulty the paper
    points out for raw-PSD metrics.
    """

    def __init__(self, reference: np.ndarray, shrinkage: float = 0.1):
        """Fit the metric.

        Args:
            reference: ``(n, d)`` reference sample matrix (Zone A PSDs).
            shrinkage: blend factor in [0, 1] toward the diagonal of the
                sample covariance; higher is more regularized.
        """
        ref = np.atleast_2d(np.asarray(reference, dtype=np.float64))
        if ref.shape[0] < 1:
            raise ValueError("at least one reference sample is required")
        if not 0.0 <= shrinkage <= 1.0:
            raise ValueError("shrinkage must be in [0, 1]")
        self.mean_ = ref.mean(axis=0)
        dim = ref.shape[1]
        if ref.shape[0] == 1:
            cov = np.eye(dim)
        else:
            cov = np.cov(ref, rowvar=False)
            cov = np.atleast_2d(cov)
        diag = np.diag(np.clip(np.diag(cov), 1e-12, None))
        cov = (1.0 - shrinkage) * cov + shrinkage * diag
        cov += 1e-9 * np.trace(cov) / dim * np.eye(dim)
        self._chol = np.linalg.cholesky(cov)

    def distance(self, vec: np.ndarray) -> float:
        """Mahalanobis distance of ``vec`` from the reference mean."""
        return float(self.distance_many(np.asarray(vec)[None, :])[0])

    def distance_many(self, vecs: np.ndarray) -> np.ndarray:
        """Vectorized distances for rows of ``vecs`` (one triangular solve)."""
        from scipy.linalg import solve_triangular  # lazy: not on the analyze path

        matrix = np.atleast_2d(np.asarray(vecs, dtype=np.float64))
        if matrix.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"shape mismatch: {matrix.shape[1]} vs {self.mean_.shape[0]}"
            )
        deltas = matrix - self.mean_[None, :]
        solved = solve_triangular(self._chol, deltas.T, lower=True)
        return np.linalg.norm(solved, axis=0)


def mahalanobis_distance(vec: np.ndarray, reference: np.ndarray, shrinkage: float = 0.1) -> float:
    """One-shot Mahalanobis distance of ``vec`` from ``reference`` samples."""
    return MahalanobisMetric(reference, shrinkage=shrinkage).distance(vec)
