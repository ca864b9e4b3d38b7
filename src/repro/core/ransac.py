"""RANSAC and Recursive RANSAC lifetime-model discovery (Sec. IV-C, Fig. 15).

``D_a`` is expected to grow monotonically with service time, but a fleet
mixes equipment populations with different ageing rates, and maintenance
events inject points that belong to no single linear trend.  The paper
handles both with Random Sample Consensus (Fischler & Bolles, 1981):

* one RANSAC pass finds the most supported increasing line ``D_a = θ·x + b``
  and marks everything else as outliers, and
* *Recursive RANSAC* re-runs RANSAC on the outliers until no further
  monotonically increasing line (slope above a threshold) with sufficient
  support can be found, yielding one linear lifetime model per latent
  equipment population (the paper finds two: Model I and Model II).

Execution model
---------------
:class:`RANSACLineFitter` evaluates all trials as one batched kernel:
every minimal-sample pair is drawn up front (:func:`draw_trial_pairs`,
the RNG-stream contract), slopes/intercepts/admissibility are computed
as vectors, and the (trials × N) residual matrix is walked in tiled
blocks through reused scratch buffers so the working set stays cache
resident at fleet scale.  The per-trial scalar loop over the *same*
drawn pairs lives in ``tests/reference/`` as the oracle: both consume
the identical RNG stream and return bit-identical models (same
slope/intercept floats, same inlier indices) —
``tests/core/test_ransac_parity.py`` enforces this.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

#: float64 elements per tiled residual block (~2 MiB): the scratch row
#: block stays inside L2 while each tile still amortizes numpy dispatch
#: over hundreds of trials.
RANSAC_TILE_ELEMENTS = 1 << 18


def draw_trial_pairs(
    rng: np.random.Generator, n_points: int, n_pairs: int
) -> np.ndarray:
    """Draw ``n_pairs`` distinct index pairs — the RNG-stream contract.

    All of the model layer's randomness flows through this one function
    so the batched fitter and the scalar oracle consume *exactly* the
    same stream.  The contract, in order:

    1. ``first  = rng.integers(0, n_points, size=n_pairs)``
    2. ``second = rng.integers(0, n_points - 1, size=n_pairs)``, then
       shifted up by one wherever ``second >= first``.

    Two bulk draws, no per-trial calls; the shift makes ``second``
    uniform over the ``n_points - 1`` indices distinct from ``first``,
    so each pair is a uniform ordered sample without replacement.

    Args:
        rng: generator to consume.
        n_points: population size (must be at least 2).
        n_pairs: number of pairs to draw.

    Returns:
        ``(n_pairs, 2)`` integer array of distinct index pairs.
    """
    if n_points < 2:
        raise ValueError("need at least two points to draw sample pairs")
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    first = rng.integers(0, n_points, size=n_pairs)
    second = rng.integers(0, n_points - 1, size=n_pairs)
    second = second + (second >= first)
    return np.stack([first, second], axis=1)


@dataclass(frozen=True)
class LineModel:
    """A fitted linear lifetime model ``z = slope * x + intercept``.

    Attributes:
        slope: degradation rate (feature units per day).
        intercept: feature value extrapolated to service time 0.
        inlier_indices: indices (into the fitted arrays) of supporting
            points.
        residual_threshold: inlier band half-width used during fitting.
    """

    slope: float
    intercept: float
    inlier_indices: np.ndarray
    residual_threshold: float

    @property
    def n_inliers(self) -> int:
        return int(self.inlier_indices.size)

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        """Feature value predicted at service time(s) ``x``."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    def crossing_time(self, threshold: float) -> float:
        """Service time at which the line reaches ``threshold``.

        Returns ``inf`` for non-increasing lines that never reach an
        above-line threshold.
        """
        if self.slope <= 0:
            return np.inf if threshold > self.intercept else 0.0
        return (threshold - self.intercept) / self.slope

    def residuals(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Absolute residuals of points against this line."""
        return np.abs(np.asarray(z, dtype=np.float64) - self.predict(np.asarray(x)))


def fit_line_least_squares(x: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares line fit returning ``(slope, intercept)``."""
    xs = np.asarray(x, dtype=np.float64).ravel()
    zs = np.asarray(z, dtype=np.float64).ravel()
    if xs.size != zs.size:
        raise ValueError("x and z must have equal length")
    if xs.size < 2:
        raise ValueError("need at least two points to fit a line")
    x_mean = xs.mean()
    z_mean = zs.mean()
    denom = ((xs - x_mean) ** 2).sum()
    if denom == 0:
        raise ValueError("cannot fit a line to points with identical x")
    slope = float(((xs - x_mean) * (zs - z_mean)).sum() / denom)
    intercept = float(z_mean - slope * x_mean)
    return slope, intercept


class RANSACLineFitter:
    """Robust line fitting by random sample consensus, batched.

    Fits a line through every random minimal sample (two points), counts
    the points within ``residual_threshold`` of each candidate, and keeps
    the line with the largest consensus set (earliest trial wins ties),
    which is finally refined by least squares over its inliers.

    :meth:`fit` runs all trials as one vectorized kernel; the tie-break,
    slope admissibility and refinement replicate the per-trial scalar
    loop exactly (same RNG stream, bit-identical model).
    """

    def __init__(
        self,
        residual_threshold: float | None = None,
        max_trials: int = 300,
        min_slope: float | None = None,
        max_slope: float | None = None,
        seed: int | np.random.Generator | None = 0,
    ):
        """Create a fitter.

        Args:
            residual_threshold: inlier band half-width; when None it is
                set to the median absolute deviation of ``z`` (sklearn's
                default rule).
            max_trials: number of random minimal samples to draw.
            min_slope: candidate lines with a smaller slope are rejected
                (set to a small positive value to demand increasing
                trends, as the lifetime model requires).
            max_slope: optional upper bound on candidate slopes.
            seed: RNG seed or generator for reproducible fits.
        """
        if max_trials < 1:
            raise ValueError("max_trials must be positive")
        if residual_threshold is not None and residual_threshold <= 0:
            raise ValueError("residual_threshold must be positive")
        self.residual_threshold = residual_threshold
        self.max_trials = max_trials
        self.min_slope = min_slope
        self.max_slope = max_slope
        self._rng = np.random.default_rng(seed)
        # Tiled-kernel scratch, reused across fits (recursive peeling and
        # walk-forward backtests call fit() many times per engine).
        self._resid_scratch: np.ndarray | None = None
        self._mask_scratch: np.ndarray | None = None

    def _slope_ok(self, slope: float) -> bool:
        if self.min_slope is not None and slope < self.min_slope:
            return False
        if self.max_slope is not None and slope > self.max_slope:
            return False
        return True

    def _prepare(
        self, x: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float] | None:
        """Validate inputs and resolve the inlier band half-width."""
        xs = np.asarray(x, dtype=np.float64).ravel()
        zs = np.asarray(z, dtype=np.float64).ravel()
        if xs.size != zs.size:
            raise ValueError("x and z must have equal length")
        if xs.size < 2:
            return None

        threshold = self.residual_threshold
        if threshold is None:
            mad = float(np.median(np.abs(zs - np.median(zs))))
            threshold = mad if mad > 0 else max(1e-6, float(np.abs(zs).max()) * 1e-3)
        return xs, zs, float(threshold)

    def _refine(
        self,
        xs: np.ndarray,
        zs: np.ndarray,
        best_mask: np.ndarray,
        threshold: float,
    ) -> LineModel | None:
        """Least-squares refinement on the winning consensus set.

        Refine on the consensus set, then re-evaluate inliers once (the refit line
        usually captures a slightly larger consensus set).
        """
        slope, intercept = fit_line_least_squares(xs[best_mask], zs[best_mask])
        if not self._slope_ok(slope):
            # Keep the unrefined model when refinement violates the slope
            # constraint; rebuild it from the consensus mask.
            idx = np.nonzero(best_mask)[0]
            slope, intercept = fit_line_least_squares(xs[idx], zs[idx])
            if not self._slope_ok(slope):
                return None
        residuals = np.abs(zs - (slope * xs + intercept))
        final_mask = residuals <= threshold
        if final_mask.sum() < 2:
            final_mask = best_mask
        return LineModel(
            slope=float(slope),
            intercept=float(intercept),
            inlier_indices=np.nonzero(final_mask)[0],
            residual_threshold=float(threshold),
        )

    def _consensus_counts(
        self,
        xs: np.ndarray,
        zs: np.ndarray,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        admissible: np.ndarray,
        threshold: float,
    ) -> np.ndarray:
        """Inlier count per trial, walked in tiled numpy blocks.

        Only admissible trials are evaluated.  Each tile computes
        ``|z - (slope * x + intercept)| <= threshold`` with the exact
        elementwise operation sequence of the scalar loop, so the counts
        — and therefore the winning trial — are bit-identical to it.
        """
        n = xs.size
        counts = np.zeros(slopes.size, dtype=np.int64)
        rows = max(1, RANSAC_TILE_ELEMENTS // max(1, n))
        if (
            self._resid_scratch is None
            or self._resid_scratch.shape[0] < rows
            or self._resid_scratch.shape[1] != n
        ):
            self._resid_scratch = np.empty((rows, n))
            self._mask_scratch = np.empty((rows, n), dtype=bool)
        trial_idx = np.nonzero(admissible)[0]
        for lo in range(0, trial_idx.size, rows):
            sel = trial_idx[lo : lo + rows]
            buf = self._resid_scratch[: sel.size]
            mask = self._mask_scratch[: sel.size]
            np.multiply(slopes[sel, None], xs[None, :], out=buf)
            buf += intercepts[sel, None]
            np.subtract(zs[None, :], buf, out=buf)
            np.abs(buf, out=buf)
            np.less_equal(buf, threshold, out=mask)
            counts[sel] = mask.sum(axis=1)
        return counts

    def fit(
        self, x: np.ndarray, z: np.ndarray, pairs: np.ndarray | None = None
    ) -> LineModel | None:
        """Fit the most supported line; None when no admissible line exists.

        Args:
            x: service times.
            z: feature values, same length.
            pairs: optional pre-drawn ``(trials, 2)`` minimal-sample index
                pairs (:func:`draw_trial_pairs`); drawn from the fitter's
                own RNG when omitted.  :class:`RecursiveRANSAC` passes
                surviving pairs between peeling iterations through this.
        """
        prepared = self._prepare(x, z)
        if prepared is None:
            return None
        xs, zs, threshold = prepared
        if pairs is None:
            pairs = draw_trial_pairs(self._rng, xs.size, self.max_trials)

        first = pairs[:, 0]
        second = pairs[:, 1]
        xi = xs[first]
        zi = zs[first]
        dx = xs[second] - xi
        dz = zs[second] - zi
        admissible = dx != 0.0
        slopes = np.zeros(pairs.shape[0])
        np.divide(dz, dx, out=slopes, where=admissible)
        if self.min_slope is not None:
            admissible &= slopes >= self.min_slope
        if self.max_slope is not None:
            admissible &= slopes <= self.max_slope
        if not admissible.any():
            return None
        intercepts = zi - slopes * xi

        counts = self._consensus_counts(
            xs, zs, slopes, intercepts, admissible, threshold
        )
        # First-win tie-break: the scalar loop only replaces its champion
        # on a strictly larger count, and argmax returns the earliest
        # maximum.  Inadmissible trials hold count 0 and can never win
        # (every admissible trial supports at least its own two points).
        best = int(np.argmax(counts))
        if counts[best] < 2:
            return None
        residuals = np.abs(zs - (slopes[best] * xs + intercepts[best]))
        best_mask = residuals <= threshold
        return self._refine(xs, zs, best_mask, threshold)


class RecursiveRANSAC:
    """Discover multiple linear lifetime models in mixed fleet data.

    Runs RANSAC, removes the inliers of the discovered model, and repeats
    on the remaining outliers until either no admissible increasing line
    is found or its support falls below ``min_inliers``.  Models are
    returned ordered by decreasing support; each point belongs to at most
    one model.

    Between peeling iterations the surviving trial pairs — those whose
    two sample points were *not* absorbed by the accepted model — are
    remapped into the peeled index space and reused; only the deficit up
    to ``max_trials`` is redrawn.  Outlier-to-outlier sample pairs are
    exactly the trials that can seed the next population's line, so
    reusing them preserves trial quality while consuming less RNG stream
    and less sampling time per level.
    """

    def __init__(
        self,
        residual_threshold: float | None = None,
        max_trials: int = 300,
        min_slope: float = 1e-12,
        min_inliers: int = 10,
        max_models: int = 8,
        slope_merge_tolerance: float = 0.35,
        seed: int | np.random.Generator | None = 0,
    ):
        """Create a recursive model finder.

        Args:
            residual_threshold: inlier band half-width per model.
            max_trials: RANSAC trials per recursion level.
            min_slope: smallest admissible degradation rate.
            min_inliers: minimum support for a model to be kept.
            max_models: recursion cap.
            slope_merge_tolerance: after discovery, models whose slopes
                agree within this relative tolerance are merged and
                refitted — equipment of the same population but different
                install offsets otherwise shows up as parallel duplicate
                lines.  0 disables merging.
            seed: RNG seed.
        """
        if min_inliers < 2:
            raise ValueError("min_inliers must be at least 2")
        if max_models < 1:
            raise ValueError("max_models must be positive")
        if slope_merge_tolerance < 0:
            raise ValueError("slope_merge_tolerance must be non-negative")
        self.residual_threshold = residual_threshold
        self.max_trials = max_trials
        self.min_slope = min_slope
        self.min_inliers = min_inliers
        self.max_models = max_models
        self.slope_merge_tolerance = slope_merge_tolerance
        self._rng = np.random.default_rng(seed)
        # Snapshot the pristine RNG state so clone() can replay this
        # engine's exact fit sequence (walk-forward backtests clone per
        # refresh day to keep every day independently reproducible) and
        # config_key() can content-address fits.
        self._bitgen_cls = type(self._rng.bit_generator)
        self._initial_rng_state = copy.deepcopy(self._rng.bit_generator.state)

    def clone(self) -> "RecursiveRANSAC":
        """A fresh engine with identical config and pristine RNG state.

        ``engine.clone().fit(x, z)`` always returns the same models for
        the same data, no matter how many fits the original has already
        run — the reproducibility contract the backtester relies on.
        """
        dup = type(self)(
            residual_threshold=self.residual_threshold,
            max_trials=self.max_trials,
            min_slope=self.min_slope,
            min_inliers=self.min_inliers,
            max_models=self.max_models,
            slope_merge_tolerance=self.slope_merge_tolerance,
            seed=0,
        )
        rng = np.random.Generator(self._bitgen_cls())
        rng.bit_generator.state = copy.deepcopy(self._initial_rng_state)
        dup._rng = rng
        dup._bitgen_cls = self._bitgen_cls
        dup._initial_rng_state = copy.deepcopy(self._initial_rng_state)
        return dup

    def config_key(self) -> tuple:
        """Hashable fingerprint of everything that determines a fit.

        Two engines with equal keys produce bit-identical models on
        equal data, so the key (plus a content digest of the data) can
        memoize fits — see
        :class:`~repro.runtime.cache.ModelFitCache`.  The class name
        leads the key, so a subclass that fits differently never shares
        a memoized fit with this class.
        """
        return (
            type(self).__name__,
            self.residual_threshold,
            self.max_trials,
            self.min_slope,
            self.min_inliers,
            self.max_models,
            self.slope_merge_tolerance,
            repr(self._initial_rng_state),
        )

    def fit(self, x: np.ndarray, z: np.ndarray) -> list[LineModel]:
        """Return the discovered lifetime models (possibly empty).

        The ``inlier_indices`` of every returned model index into the
        *original* ``x``/``z`` arrays.
        """
        xs = np.asarray(x, dtype=np.float64).ravel()
        zs = np.asarray(z, dtype=np.float64).ravel()
        if xs.size != zs.size:
            raise ValueError("x and z must have equal length")

        fitter = RANSACLineFitter(
            residual_threshold=self.residual_threshold,
            max_trials=self.max_trials,
            min_slope=self.min_slope,
            seed=self._rng,
        )

        remaining = np.arange(xs.size)
        pairs: np.ndarray | None = None
        models: list[LineModel] = []
        while remaining.size >= self.min_inliers and len(models) < self.max_models:
            if pairs is None:
                pairs = draw_trial_pairs(self._rng, remaining.size, self.max_trials)
            elif pairs.shape[0] < self.max_trials:
                top_up = draw_trial_pairs(
                    self._rng, remaining.size, self.max_trials - pairs.shape[0]
                )
                pairs = np.concatenate([pairs, top_up], axis=0)
            model = fitter.fit(xs[remaining], zs[remaining], pairs=pairs)
            if model is None or model.n_inliers < self.min_inliers:
                break
            global_inliers = remaining[model.inlier_indices]
            models.append(
                LineModel(
                    slope=model.slope,
                    intercept=model.intercept,
                    inlier_indices=global_inliers,
                    residual_threshold=model.residual_threshold,
                )
            )
            keep = np.ones(remaining.size, dtype=bool)
            keep[model.inlier_indices] = False
            # Reuse outlier-to-outlier trial pairs at the next level:
            # remap them into the peeled index space, drop pairs that
            # lost an endpoint to the accepted model.
            new_pos = np.cumsum(keep) - 1
            alive = keep[pairs[:, 0]] & keep[pairs[:, 1]]
            pairs = new_pos[pairs[alive]]
            remaining = remaining[keep]
        models = self._merge_similar(models, xs, zs)
        models.sort(key=lambda m: m.n_inliers, reverse=True)
        return models

    def _merge_similar(
        self, models: list[LineModel], xs: np.ndarray, zs: np.ndarray
    ) -> list[LineModel]:
        """Merge models whose slopes agree within the relative tolerance.

        The merged model keeps the dominant member's line (slope and
        intercept are *not* refitted across the union: same-population
        pumps installed at different offsets produce parallel lines, and
        a joint refit would tilt the slope to bridge them).  The union of
        inlier indices becomes the merged support.
        """
        if self.slope_merge_tolerance <= 0 or len(models) < 2:
            return models
        ordered = sorted(models, key=lambda m: m.n_inliers, reverse=True)
        merged: list[LineModel] = []
        for model in ordered:
            host = None
            for idx, existing in enumerate(merged):
                scale = max(abs(existing.slope), abs(model.slope), 1e-30)
                if abs(existing.slope - model.slope) / scale <= self.slope_merge_tolerance:
                    host = idx
                    break
            if host is None:
                merged.append(model)
            else:
                existing = merged[host]
                union = np.union1d(existing.inlier_indices, model.inlier_indices)
                merged[host] = LineModel(
                    slope=existing.slope,
                    intercept=existing.intercept,
                    inlier_indices=union,
                    residual_threshold=existing.residual_threshold,
                )
        return merged

    def assign(self, models: list[LineModel], x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Assign each point to its best-fitting model (or -1 for none).

        A point is assigned to the model with the smallest residual,
        provided that residual is within the model's inlier band.
        """
        xs = np.asarray(x, dtype=np.float64).ravel()
        zs = np.asarray(z, dtype=np.float64).ravel()
        if not models:
            return np.full(xs.size, -1, dtype=np.intp)
        residuals = np.stack([m.residuals(xs, zs) for m in models], axis=1)
        best = residuals.argmin(axis=1)
        best_resid = residuals[np.arange(xs.size), best]
        bands = np.asarray([m.residual_threshold for m in models])
        assigned = np.where(best_resid <= bands[best], best, -1)
        return assigned.astype(np.intp)
