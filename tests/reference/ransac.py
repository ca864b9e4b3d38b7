"""Scalar oracle of the batched RANSAC model layer.

:func:`fit_reference` is the per-trial loop that
:meth:`repro.core.ransac.RANSACLineFitter.fit` vectorizes: it consumes the
same RNG stream (pairs come from :func:`draw_trial_pairs` either way) and
must return a bit-identical model.  :class:`ReferenceRecursiveRANSAC`
peels populations with it.
"""

from __future__ import annotations

import numpy as np

from repro.core.ransac import LineModel, RANSACLineFitter, RecursiveRANSAC, draw_trial_pairs


def fit_reference(
    fitter: RANSACLineFitter,
    x: np.ndarray,
    z: np.ndarray,
    pairs: np.ndarray | None = None,
) -> LineModel | None:
    """Per-trial scalar fit with ``fitter``'s configuration and RNG."""
    prepared = fitter._prepare(x, z)
    if prepared is None:
        return None
    xs, zs, threshold = prepared
    if pairs is None:
        pairs = draw_trial_pairs(fitter._rng, xs.size, fitter.max_trials)

    best_mask: np.ndarray | None = None
    best_count = 0
    for i, j in pairs:
        dx = xs[j] - xs[i]
        if dx == 0:
            continue
        slope = (zs[j] - zs[i]) / dx
        if not fitter._slope_ok(slope):
            continue
        intercept = zs[i] - slope * xs[i]
        residuals = np.abs(zs - (slope * xs + intercept))
        mask = residuals <= threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_mask is None or best_count < 2:
        return None
    return fitter._refine(xs, zs, best_mask, threshold)


class ReferenceRecursiveRANSAC(RecursiveRANSAC):
    """:class:`RecursiveRANSAC` whose every level runs :func:`fit_reference`."""

    def fit(self, x: np.ndarray, z: np.ndarray) -> list[LineModel]:
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
            model = fit_reference(fitter, xs[remaining], zs[remaining], pairs=pairs)
            if model is None or model.n_inliers < self.min_inliers:
                break
            models.append(
                LineModel(
                    slope=model.slope,
                    intercept=model.intercept,
                    inlier_indices=remaining[model.inlier_indices],
                    residual_threshold=model.residual_threshold,
                )
            )
            keep = np.ones(remaining.size, dtype=bool)
            keep[model.inlier_indices] = False
            new_pos = np.cumsum(keep) - 1
            alive = keep[pairs[:, 0]] & keep[pairs[:, 1]]
            pairs = new_pos[pairs[alive]]
            remaining = remaining[keep]
        models = self._merge_similar(models, xs, zs)
        models.sort(key=lambda m: m.n_inliers, reverse=True)
        return models
