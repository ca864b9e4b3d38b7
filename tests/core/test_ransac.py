"""Tests for RANSAC and Recursive RANSAC (ransac.py)."""

import numpy as np
import pytest

from repro.core.ransac import (
    LineModel,
    RANSACLineFitter,
    RecursiveRANSAC,
    fit_line_least_squares,
)


def planted_line(slope, intercept, n, noise, seed, x_max=100.0):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0, x_max, size=n)
    z = slope * x + intercept + gen.normal(0, noise, size=n)
    return x, z


class TestLeastSquares:
    def test_exact_fit_on_noiseless_line(self):
        x = np.asarray([0.0, 1.0, 2.0, 3.0])
        z = 2.0 * x + 1.0
        slope, intercept = fit_line_least_squares(x, z)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_line_least_squares([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_line_least_squares([1.0, 1.0], [0.0, 2.0])
        with pytest.raises(ValueError):
            fit_line_least_squares([1.0, 2.0], [1.0])


class TestLineModel:
    def test_predict(self):
        model = LineModel(2.0, 1.0, np.arange(3), 0.1)
        assert model.predict(3.0) == pytest.approx(7.0)

    def test_crossing_time(self):
        model = LineModel(0.01, 0.1, np.arange(3), 0.1)
        assert model.crossing_time(0.2) == pytest.approx(10.0)

    def test_crossing_time_flat_line(self):
        flat = LineModel(0.0, 0.1, np.arange(3), 0.1)
        assert flat.crossing_time(0.5) == np.inf
        assert flat.crossing_time(0.05) == 0.0

    def test_residuals(self):
        model = LineModel(1.0, 0.0, np.arange(2), 0.1)
        res = model.residuals(np.asarray([1.0, 2.0]), np.asarray([1.5, 1.0]))
        assert np.allclose(res, [0.5, 1.0])


class TestRANSAC:
    def test_recovers_planted_line_under_outliers(self):
        x, z = planted_line(0.02, 0.5, n=100, noise=0.01, seed=0)
        gen = np.random.default_rng(1)
        outlier_idx = gen.choice(100, size=30, replace=False)
        z = z.copy()
        z[outlier_idx] += gen.uniform(1.0, 3.0, size=30)
        model = RANSACLineFitter(residual_threshold=0.05, seed=2).fit(x, z)
        assert model is not None
        assert model.slope == pytest.approx(0.02, rel=0.15)
        assert model.intercept == pytest.approx(0.5, abs=0.1)
        # The planted inliers dominate the consensus set.
        assert model.n_inliers >= 60

    def test_least_squares_would_fail_here(self):
        """Sanity: the contamination really does break plain OLS."""
        x, z = planted_line(0.02, 0.5, n=100, noise=0.01, seed=0)
        gen = np.random.default_rng(1)
        z = z.copy()
        z[gen.choice(100, size=30, replace=False)] += gen.uniform(1.0, 3.0, size=30)
        slope, _ = fit_line_least_squares(x, z)
        assert abs(slope - 0.02) > 0.001

    def test_min_slope_constraint_rejects_decreasing_trends(self):
        x, z = planted_line(-0.05, 5.0, n=60, noise=0.01, seed=3)
        model = RANSACLineFitter(residual_threshold=0.05, min_slope=1e-6, seed=0).fit(x, z)
        assert model is None or model.slope >= 1e-6

    def test_returns_none_for_too_few_points(self):
        assert RANSACLineFitter().fit(np.asarray([1.0]), np.asarray([1.0])) is None

    def test_default_threshold_from_mad(self):
        x, z = planted_line(0.02, 0.5, n=80, noise=0.02, seed=4)
        model = RANSACLineFitter(seed=0).fit(x, z)
        assert model is not None
        assert model.residual_threshold > 0

    def test_deterministic_with_seed(self):
        x, z = planted_line(0.02, 0.5, n=80, noise=0.05, seed=5)
        m1 = RANSACLineFitter(seed=42).fit(x, z)
        m2 = RANSACLineFitter(seed=42).fit(x, z)
        assert m1.slope == m2.slope
        assert np.array_equal(m1.inlier_indices, m2.inlier_indices)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RANSACLineFitter(max_trials=0)
        with pytest.raises(ValueError):
            RANSACLineFitter(residual_threshold=0.0)

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(ValueError):
            RANSACLineFitter().fit(np.ones(3), np.ones(4))


class TestRecursiveRANSAC:
    def test_discovers_two_planted_populations(self):
        """The Fig. 15 scenario: two linear lifetime models in one scatter."""
        x1, z1 = planted_line(0.0006, 0.05, n=200, noise=0.01, seed=0, x_max=500)
        x2, z2 = planted_line(0.0018, 0.05, n=120, noise=0.01, seed=1, x_max=170)
        x = np.concatenate([x1, x2])
        z = np.concatenate([z1, z2])
        rr = RecursiveRANSAC(residual_threshold=0.03, min_inliers=50, min_slope=1e-5, seed=0)
        models = rr.fit(x, z)
        assert len(models) == 2
        slopes = sorted(m.slope for m in models)
        assert slopes[0] == pytest.approx(0.0006, rel=0.3)
        assert slopes[1] == pytest.approx(0.0018, rel=0.3)

    def test_inlier_sets_are_disjoint(self):
        x1, z1 = planted_line(0.001, 0.0, n=100, noise=0.005, seed=2, x_max=400)
        x2, z2 = planted_line(0.004, 0.0, n=100, noise=0.005, seed=3, x_max=150)
        x = np.concatenate([x1, x2])
        z = np.concatenate([z1, z2])
        models = RecursiveRANSAC(
            residual_threshold=0.02, min_inliers=40, min_slope=1e-5, seed=0
        ).fit(x, z)
        seen = set()
        for model in models:
            current = set(model.inlier_indices.tolist())
            assert not (seen & current)
            seen |= current

    def test_stops_on_pure_noise(self):
        gen = np.random.default_rng(4)
        x = gen.uniform(0, 100, size=200)
        z = gen.uniform(0, 1, size=200)
        models = RecursiveRANSAC(
            residual_threshold=0.01, min_inliers=80, min_slope=1e-4, seed=0
        ).fit(x, z)
        assert len(models) <= 1

    def test_respects_max_models(self):
        x, z = planted_line(0.001, 0.0, n=300, noise=0.3, seed=5)
        models = RecursiveRANSAC(
            residual_threshold=0.2, min_inliers=5, max_models=2, seed=0
        ).fit(x, z)
        assert len(models) <= 2

    def test_models_sorted_by_support(self):
        x1, z1 = planted_line(0.001, 0.0, n=200, noise=0.005, seed=6, x_max=400)
        x2, z2 = planted_line(0.005, 0.0, n=60, noise=0.005, seed=7, x_max=150)
        models = RecursiveRANSAC(
            residual_threshold=0.02, min_inliers=30, min_slope=1e-5, seed=0
        ).fit(np.concatenate([x1, x2]), np.concatenate([z1, z2]))
        supports = [m.n_inliers for m in models]
        assert supports == sorted(supports, reverse=True)

    def test_assign_points_to_models(self):
        x1, z1 = planted_line(0.001, 0.0, n=100, noise=0.003, seed=8, x_max=400)
        x2, z2 = planted_line(0.004, 0.0, n=100, noise=0.003, seed=9, x_max=150)
        x = np.concatenate([x1, x2])
        z = np.concatenate([z1, z2])
        rr = RecursiveRANSAC(residual_threshold=0.02, min_inliers=40, min_slope=1e-5, seed=0)
        models = rr.fit(x, z)
        assigned = rr.assign(models, x, z)
        assert assigned.shape == (200,)
        assert (assigned >= -1).all()
        assert (assigned < len(models)).all()
        # Far-away points get no model.
        far = rr.assign(models, np.asarray([50.0]), np.asarray([10.0]))
        assert far[0] == -1

    def test_assign_with_no_models(self):
        rr = RecursiveRANSAC()
        assigned = rr.assign([], np.ones(3), np.ones(3))
        assert (assigned == -1).all()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RecursiveRANSAC(min_inliers=1)
        with pytest.raises(ValueError):
            RecursiveRANSAC(max_models=0)
