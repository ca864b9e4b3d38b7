"""Batched-vs-scalar parity for the RANSAC model layer (ransac.py).

The batched :meth:`RANSACLineFitter.fit` must be *bit-identical* to the
scalar oracle :func:`tests.reference.ransac.fit_reference`: same model
floats, same inlier indices, and the same consumed RNG stream (both draw
through :func:`draw_trial_pairs`).  These tests drive that contract across
random fleets, slope constraints, and degenerate inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.ransac as ransac_module
from repro.core.ransac import RANSACLineFitter, RecursiveRANSAC, draw_trial_pairs
from tests.reference.ransac import ReferenceRecursiveRANSAC, fit_reference


def assert_same_fit(model_a, model_b):
    if model_a is None or model_b is None:
        assert model_a is None and model_b is None
        return
    assert model_a.slope == model_b.slope
    assert model_a.intercept == model_b.intercept
    assert model_a.residual_threshold == model_b.residual_threshold
    assert np.array_equal(model_a.inlier_indices, model_b.inlier_indices)


class TestDrawTrialPairs:
    def test_pairs_are_distinct_and_in_range(self):
        rng = np.random.default_rng(0)
        pairs = draw_trial_pairs(rng, 17, 5000)
        assert pairs.shape == (5000, 2)
        assert (pairs >= 0).all() and (pairs < 17).all()
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_contract_is_two_bulk_draws(self):
        """The documented stream: first = integers(0, n, T); second =
        integers(0, n-1, T) shifted past first."""
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        pairs = draw_trial_pairs(rng_a, 10, 64)
        first = rng_b.integers(0, 10, size=64)
        second = rng_b.integers(0, 9, size=64)
        second = second + (second >= first)
        assert np.array_equal(pairs[:, 0], first)
        assert np.array_equal(pairs[:, 1], second)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_rejects_degenerate_population(self):
        with pytest.raises(ValueError):
            draw_trial_pairs(np.random.default_rng(0), 1, 4)

    def test_pair_distribution_is_uniform(self):
        rng = np.random.default_rng(7)
        pairs = draw_trial_pairs(rng, 5, 40000)
        # 20 ordered pairs, ~2000 each.
        codes = pairs[:, 0] * 5 + pairs[:, 1]
        counts = np.bincount(codes, minlength=25).reshape(5, 5)
        assert np.diag(counts).sum() == 0
        off_diag = counts[~np.eye(5, dtype=bool)]
        assert off_diag.min() > 1600 and off_diag.max() < 2400


BAND_EDGE_THRESHOLD = 0.25


def band_edge_points(gen, n):
    """Distinct integer ``x`` on three parallel lines ``0.5 x + {-t, 0, t}``.

    Every value is dyadic, so a trial through two centre-line points fits
    ``0.5 x`` exactly and every off-centre residual against it is exactly
    the threshold ``t``: the consensus count must keep ``<=`` on the band
    edge, as the scalar loop does.  Mixed-line trials add residuals a
    rounding step either side of the edge.
    """
    x = gen.permutation(n).astype(np.float64)
    z = 0.5 * x + BAND_EDGE_THRESHOLD * gen.integers(-1, 2, n)
    return x, z


def nan_feature_points(gen, n):
    """A noisy line with about a quarter of its features NaN.

    ``_prepare`` does not filter NaN, so NaN features reach the consensus
    kernel, where they must never count as inliers.
    """
    x = gen.uniform(0, 80, n)
    z = 0.05 * x + gen.normal(0, 0.3, n)
    z[gen.random(n) < 0.25] = np.nan
    return x, z


UNCONSTRAINED = {"max_trials": 200, "min_slope": None, "max_slope": None, "seed": 0}
BAND_EDGE_EXAMPLE = (
    *band_edge_points(np.random.default_rng(0), 90),
    {**UNCONSTRAINED, "residual_threshold": BAND_EDGE_THRESHOLD},
)
NAN_FEATURES_EXAMPLE = (
    *nan_feature_points(np.random.default_rng(1), 60),
    {**UNCONSTRAINED, "residual_threshold": 0.2},
)


@st.composite
def fleet_case(draw):
    n = draw(st.integers(2, 120))
    seed = draw(st.integers(0, 2**31 - 1))
    gen = np.random.default_rng(seed)
    kind = draw(
        st.sampled_from(
            [
                "noisy-line",
                "two-lines",
                "duplicate-x",
                "collinear",
                "nan-features",
                "band-edge",
            ]
        )
    )
    if kind == "band-edge":
        x, z = band_edge_points(gen, n)
    elif kind == "nan-features":
        x, z = nan_feature_points(gen, n)
    elif kind == "collinear":
        x = np.linspace(0.0, 50.0, n)
        z = 0.03 * x + 0.1
    elif kind == "duplicate-x":
        x = np.repeat(gen.uniform(0, 50, max(1, n // 3 + 1)), 3)[:n]
        z = 0.05 * x + gen.normal(0, 0.2, n)
    elif kind == "two-lines":
        x = gen.uniform(0, 80, n)
        rate = np.where(gen.random(n) < 0.5, 0.02, 0.09)
        z = rate * x + gen.normal(0, 0.05, n)
    else:
        x = gen.uniform(0, 80, n)
        z = 0.05 * x + gen.normal(0, 0.3, n)
    params = {
        "residual_threshold": draw(
            st.sampled_from([None, 0.05, 0.2, 1.0])
        ),
        "max_trials": draw(st.integers(1, 300)),
        "min_slope": draw(st.sampled_from([None, 1e-12, 0.04])),
        "max_slope": draw(st.sampled_from([None, 0.06, 10.0])),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }
    if kind == "band-edge":
        params["residual_threshold"] = BAND_EDGE_THRESHOLD
    return x, z, params


class TestBatchedScalarParity:
    @given(fleet_case())
    @example(BAND_EDGE_EXAMPLE)
    @example(NAN_FEATURES_EXAMPLE)
    @settings(max_examples=120, deadline=None)
    def test_fit_bit_identical_to_reference(self, case):
        x, z, params = case
        batched = RANSACLineFitter(**params)
        scalar = RANSACLineFitter(**params)
        assert_same_fit(batched.fit(x, z), fit_reference(scalar, x, z))
        # Both paths consumed the identical RNG stream.
        assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state

    @given(fleet_case())
    @settings(max_examples=40, deadline=None)
    def test_parity_survives_tiny_tiles(self, case):
        x, z, params = case
        batched = RANSACLineFitter(**params)
        scalar = RANSACLineFitter(**params)
        original = ransac_module.RANSAC_TILE_ELEMENTS
        ransac_module.RANSAC_TILE_ELEMENTS = 7
        try:
            assert_same_fit(batched.fit(x, z), fit_reference(scalar, x, z))
        finally:
            ransac_module.RANSAC_TILE_ELEMENTS = original

    def test_n_equals_two(self):
        batched = RANSACLineFitter(seed=0, max_trials=16)
        scalar = RANSACLineFitter(seed=0, max_trials=16)
        x = np.asarray([1.0, 2.0])
        z = np.asarray([0.5, 0.7])
        assert_same_fit(batched.fit(x, z), fit_reference(scalar, x, z))

    def test_all_duplicate_x_yields_none_on_both(self):
        x = np.full(20, 3.0)
        z = np.linspace(0, 1, 20)
        assert RANSACLineFitter(seed=1).fit(x, z) is None
        assert fit_reference(RANSACLineFitter(seed=1), x, z) is None

    def test_undersized_input_consumes_no_rng(self):
        fitter = RANSACLineFitter(seed=5)
        state = fitter._rng.bit_generator.state
        assert fitter.fit(np.asarray([1.0]), np.asarray([2.0])) is None
        assert fitter._rng.bit_generator.state == state

    def test_scratch_reuse_across_fits(self):
        """Repeated fits reuse the tiled scratch without cross-talk."""
        fitter = RANSACLineFitter(seed=3, max_trials=64)
        gen = np.random.default_rng(4)
        reference = RANSACLineFitter(seed=3, max_trials=64)
        for n in (50, 200, 50, 128):
            x = gen.uniform(0, 10, n)
            z = 0.4 * x + gen.normal(0, 0.1, n)
            assert_same_fit(fitter.fit(x, z), fit_reference(reference, x, z))


class TestNativeKernel:
    """The tiled consensus kernel must count bit-identically to a
    per-trial loop over ``|z - (slope * x + intercept)| <= threshold``."""

    @staticmethod
    def random_trials(seed, n=700, trials=400):
        gen = np.random.default_rng(seed)
        xs = gen.uniform(0, 100, n)
        zs = 0.05 * xs + gen.normal(0, 0.3, n)
        pairs = draw_trial_pairs(gen, n, trials)
        dx = xs[pairs[:, 1]] - xs[pairs[:, 0]]
        dz = zs[pairs[:, 1]] - zs[pairs[:, 0]]
        admissible = dx != 0.0
        slopes = np.zeros(trials)
        np.divide(dz, dx, out=slopes, where=admissible)
        intercepts = zs[pairs[:, 0]] - slopes * xs[pairs[:, 0]]
        return xs, zs, slopes, intercepts, admissible

    @staticmethod
    def loop_counts(xs, zs, slopes, intercepts, admissible, thr):
        counts = np.zeros(slopes.size, dtype=np.int64)
        for t in np.nonzero(admissible)[0]:
            residuals = np.abs(zs - (slopes[t] * xs + intercepts[t]))
            counts[t] = int((residuals <= thr).sum())
        return counts

    def assert_tiles_match_loop(self, xs, zs, slopes, intercepts, admissible, thr):
        expected = self.loop_counts(xs, zs, slopes, intercepts, admissible, thr)
        original = ransac_module.RANSAC_TILE_ELEMENTS
        try:
            for tile in (original, 7):
                ransac_module.RANSAC_TILE_ELEMENTS = tile
                tiled = RANSACLineFitter(seed=0)._consensus_counts(
                    xs, zs, slopes, intercepts, admissible, thr
                )
                assert np.array_equal(tiled, expected)
        finally:
            ransac_module.RANSAC_TILE_ELEMENTS = original

    def test_nan_features_never_count_as_inliers(self):
        """NaN residuals fail ``<=`` in every tile."""
        xs, zs, slopes, intercepts, admissible = self.random_trials(6, n=64)
        zs = zs.copy()
        zs[::4] = np.nan
        self.assert_tiles_match_loop(xs, zs, slopes, intercepts, admissible, 0.25)
        counts = RANSACLineFitter(seed=0)._consensus_counts(
            xs, zs, slopes, intercepts, admissible, 0.25
        )
        assert counts.max() <= np.isfinite(zs).sum()

    def test_boundary_residuals_decide_identically(self):
        """Points engineered to land near the band edge must resolve to
        the same side in the tiles as in the per-trial loop."""
        gen = np.random.default_rng(7)
        xs = gen.uniform(0, 100, 2000)
        slopes = gen.uniform(0.01, 0.1, 300)
        intercepts = gen.uniform(-1, 1, 300)
        thr = 0.1
        # Place every point exactly thr away from trial 0's line, up to
        # float rounding; many residuals then sit on the boundary.
        zs = slopes[0] * xs + intercepts[0] + thr * gen.choice([-1.0, 1.0], 2000)
        admissible = np.ones(300, dtype=bool)
        self.assert_tiles_match_loop(xs, zs, slopes, intercepts, admissible, thr)
        # Dyadic values put the residuals against 0.5 x exactly on the edge,
        # where only ``<=`` counts them.
        xs, zs = band_edge_points(gen, 90)
        slopes = np.array([0.5, 0.5 + 2.0**-20])
        intercepts = np.zeros(2)
        admissible = np.ones(2, dtype=bool)
        self.assert_tiles_match_loop(
            xs, zs, slopes, intercepts, admissible, BAND_EDGE_THRESHOLD
        )


class TestRecursiveEngineParity:
    @staticmethod
    def _two_population_fleet(seed=0, n=400):
        gen = np.random.default_rng(seed)
        half = n // 2
        x = np.concatenate([gen.uniform(0, 90, half), gen.uniform(0, 60, n - half)])
        z = np.concatenate(
            [0.02 * x[:half], 0.08 * x[half:]]
        ) + gen.normal(0, 0.04, n)
        return x, z

    def test_batched_and_reference_engines_agree(self):
        x, z = self._two_population_fleet()
        kwargs = dict(residual_threshold=0.12, min_inliers=40, seed=0)
        batched = RecursiveRANSAC(**kwargs).fit(x, z)
        reference = ReferenceRecursiveRANSAC(**kwargs).fit(x, z)
        assert len(batched) == len(reference) >= 2
        for a, b in zip(batched, reference):
            assert_same_fit(a, b)

    def test_clone_replays_from_pristine_state(self):
        x, z = self._two_population_fleet(seed=2)
        engine = RecursiveRANSAC(residual_threshold=0.12, min_inliers=40, seed=9)
        first = engine.fit(x, z)
        # The engine's stream advanced; a clone starts over.
        clone = engine.clone()
        replay = clone.fit(x, z)
        for a, b in zip(first, replay):
            assert_same_fit(a, b)
        assert engine.config_key() == clone.config_key()

    def test_config_key_distinguishes_configs(self):
        base = RecursiveRANSAC(seed=0)
        assert base.config_key() == RecursiveRANSAC(seed=0).config_key()
        assert base.config_key() != RecursiveRANSAC(seed=1).config_key()
        assert base.config_key() != RecursiveRANSAC(seed=0, max_trials=77).config_key()
        assert (
            base.config_key()
            != ReferenceRecursiveRANSAC(seed=0).config_key()
        )

    def test_pair_reuse_matches_engine_restart_support(self):
        """Peeling reuses surviving pairs; the discovered populations
        must still cover both planted lines with dominant support."""
        x, z = self._two_population_fleet(seed=5, n=600)
        models = RecursiveRANSAC(
            residual_threshold=0.12, min_inliers=50, seed=1
        ).fit(x, z)
        slopes = sorted(m.slope for m in models[:2])
        assert slopes[0] == pytest.approx(0.02, abs=0.02)
        assert slopes[1] == pytest.approx(0.08, abs=0.03)
