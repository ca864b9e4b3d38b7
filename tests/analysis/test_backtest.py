"""Tests for walk-forward RUL backtesting (backtest.py)."""

import numpy as np
import pytest

from repro.analysis.backtest import BacktestPoint, BacktestResult, backtest_rul
from repro.core.ransac import RecursiveRANSAC
from repro.runtime import RuntimeProfile
from repro.runtime.cache import ModelFitCache
from tests.reference.backtest import backtest_rul_reference
from tests.reference.ransac import ReferenceRecursiveRANSAC


def synthetic_fleet_history(seed=0, n_pumps=6, days=90.0, step=1.0):
    """Hand-built linear-degradation fleet with exact ground truth."""
    gen = np.random.default_rng(seed)
    pump_ids, times, service, da = [], [], [], []
    lives = {}
    for pump in range(n_pumps):
        # Half fast (life 150 d), half slow (life 450 d), staggered ages.
        life = 150.0 if pump % 2 else 450.0
        lives[pump] = life
        age0 = gen.uniform(0, 0.5 * life)
        slope = 0.35 / life  # D_a reaches 0.35 at failure
        for t in np.arange(0.0, days, step):
            s = age0 + t
            pump_ids.append(pump)
            times.append(t)
            service.append(s)
            da.append(0.05 + slope * s + gen.normal(0, 0.008))
    return (
        np.asarray(pump_ids),
        np.asarray(times),
        np.asarray(service),
        np.asarray(da),
        lives,
    )


THRESHOLD = 0.05 + 0.35 * 0.85  # feature level at 85% of life


class TestBacktestRul:
    def test_produces_points_for_all_pumps(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        result = backtest_rul(
            pumps, times, service, da, lives,
            zone_d_threshold=THRESHOLD, refresh_every_days=20.0,
        )
        assert result.points
        assert {p.pump_id for p in result.points} == set(lives)

    def test_errors_are_small_on_clean_linear_fleet(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        result = backtest_rul(
            pumps, times, service, da, lives,
            zone_d_threshold=THRESHOLD, refresh_every_days=20.0,
        )
        # The projection targets 85% of life; systematic offset is 15% of
        # life plus estimation noise.
        assert result.mae() < 110.0

    def test_prediction_uses_only_past_data(self):
        """Corrupting the future must not change early predictions."""
        pumps, times, service, da, lives = synthetic_fleet_history()
        base = backtest_rul(
            pumps, times, service, da, lives,
            zone_d_threshold=THRESHOLD, refresh_every_days=30.0,
        )
        corrupted = da.copy()
        corrupted[times > 60.0] += 5.0
        alt = backtest_rul(
            pumps, times, service, corrupted, lives,
            zone_d_threshold=THRESHOLD, refresh_every_days=30.0,
        )
        early_base = [p for p in base.points if p.asof_day <= 60.0]
        early_alt = [p for p in alt.points if p.asof_day <= 60.0]
        assert len(early_base) == len(early_alt)
        for a, b in zip(early_base, early_alt):
            assert a.predicted_rul_days == pytest.approx(b.predicted_rul_days)

    def test_invalid_measurements_skipped(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        da_with_nans = da.copy()
        da_with_nans[::7] = np.nan
        result = backtest_rul(
            pumps, times, service, da_with_nans, lives,
            zone_d_threshold=THRESHOLD, refresh_every_days=30.0,
        )
        assert result.points
        assert np.isfinite(result.errors()).all()

    def test_pumps_without_truth_are_skipped(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        partial = {k: v for k, v in lives.items() if k < 3}
        result = backtest_rul(
            pumps, times, service, da, partial,
            zone_d_threshold=THRESHOLD, refresh_every_days=30.0,
        )
        assert {p.pump_id for p in result.points} <= set(partial)

    def test_rejects_bad_inputs(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        with pytest.raises(ValueError, match="align"):
            backtest_rul(pumps[:-1], times, service, da, lives, THRESHOLD)
        with pytest.raises(ValueError, match="refresh"):
            backtest_rul(pumps, times, service, da, lives, THRESHOLD,
                         refresh_every_days=0.0)


class TestIncrementalBacktestParity:
    """The incremental fast path must reproduce the per-day rescan
    reference bit for bit (same points, same floats, same order)."""

    @staticmethod
    def assert_identical(a: BacktestResult, b: BacktestResult):
        assert len(a.points) == len(b.points) > 0
        for pa, pb in zip(a.points, b.points):
            assert pa == pb

    def test_fast_equals_reference(self):
        pumps, times, service, da, lives = synthetic_fleet_history()
        args = (pumps, times, service, da, lives, THRESHOLD)
        fast = backtest_rul(*args, refresh_every_days=20.0,
                            fit_cache=ModelFitCache())
        ref = backtest_rul_reference(*args, refresh_every_days=20.0)
        self.assert_identical(fast, ref)

    def test_fast_equals_reference_with_nans_and_supplied_engine(self):
        pumps, times, service, da, lives = synthetic_fleet_history(seed=3)
        da = da.copy()
        da[::5] = np.nan
        kwargs = dict(residual_threshold=0.05, min_inliers=30, seed=4)
        fast = backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=15.0, ransac=RecursiveRANSAC(**kwargs),
            fit_cache=ModelFitCache(),
        )
        # The oracle fits every day with the per-trial scalar loop.
        ref = backtest_rul_reference(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=15.0, ransac=ReferenceRecursiveRANSAC(**kwargs),
        )
        self.assert_identical(fast, ref)

    def test_supplied_engine_is_reusable_across_runs(self):
        """Regression: the caller's engine used to advance its RNG state
        across as-of days, so a second backtest with the same engine gave
        different fits.  Cloning per day makes runs reproducible."""
        pumps, times, service, da, lives = synthetic_fleet_history(seed=1)
        engine = RecursiveRANSAC(residual_threshold=0.05, min_inliers=30, seed=7)
        first = backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=20.0, ransac=engine, fit_cache=ModelFitCache(),
        )
        second = backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=20.0, ransac=engine, fit_cache=ModelFitCache(),
        )
        self.assert_identical(first, second)

    def test_warm_fit_cache_reuses_every_fit(self):
        pumps, times, service, da, lives = synthetic_fleet_history(seed=2)
        cache = ModelFitCache()
        cold = backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=20.0, fit_cache=cache,
        )
        cold_misses = cache.misses
        assert cold_misses > 0 and cache.hits == 0
        warm = backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=20.0, fit_cache=cache,
        )
        self.assert_identical(cold, warm)
        assert cache.misses == cold_misses  # warm run fitted nothing
        assert cache.hits == cold_misses

    def test_profile_receives_model_layer_stages(self):
        pumps, times, service, da, lives = synthetic_fleet_history(seed=5)
        profile = RuntimeProfile()
        backtest_rul(
            pumps, times, service, da, lives, THRESHOLD,
            refresh_every_days=20.0, fit_cache=ModelFitCache(), profile=profile,
        )
        assert "backtest.fit_models" in profile.stages
        assert "backtest.predict" in profile.stages
        assert profile.counters["backtest.days"] > 0
        assert profile.counters["backtest.predictions"] > 0
        assert profile.counters["backtest.fit_cache_misses"] > 0


class TestBacktestResult:
    def make_points(self):
        return [
            BacktestPoint(0, 10.0, 200.0, 190.0, 200.0),
            BacktestPoint(0, 50.0, 160.0, 180.0, 160.0),
            BacktestPoint(1, 10.0, 40.0, 20.0, 40.0),
        ]

    def test_mae(self):
        result = BacktestResult(self.make_points())
        assert result.mae() == pytest.approx((10 + 20 + 20) / 3)

    def test_mae_by_lead_time(self):
        result = BacktestResult(self.make_points())
        buckets = result.mae_by_lead_time((0.0, 100.0, 300.0))
        assert buckets["0-100d"] == pytest.approx(20.0)
        assert buckets["100-300d"] == pytest.approx(15.0)

    def test_empty_bucket_is_nan(self):
        result = BacktestResult(self.make_points())
        buckets = result.mae_by_lead_time((500.0, 600.0))
        assert np.isnan(buckets["500-600d"])

    def test_empty_result_mae_nan(self):
        assert np.isnan(BacktestResult([]).mae())

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            BacktestResult([]).mae_by_lead_time((10.0,))
        with pytest.raises(ValueError):
            BacktestResult([]).mae_by_lead_time((10.0, 5.0))
