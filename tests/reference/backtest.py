"""Scalar oracle of the incremental walk-forward backtest."""

from __future__ import annotations

import numpy as np

from repro.analysis.backtest import (
    BacktestPoint,
    BacktestResult,
    _day_engine,
    _plan_backtest,
    _predict_day,
)
from repro.core.ransac import RecursiveRANSAC
from repro.core.rul import RULEstimator


def backtest_rul_reference(
    pump_ids: np.ndarray,
    timestamp_days: np.ndarray,
    service_days: np.ndarray,
    da: np.ndarray,
    true_life_days: dict[int, float],
    zone_d_threshold: float,
    refresh_every_days: float = 10.0,
    min_history_per_pump: int = 10,
    min_fleet_points: int = 100,
    ransac: RecursiveRANSAC | None = None,
) -> BacktestResult:
    """Straightforward per-day rescan loop — the parity reference.

    Same semantics as :func:`~repro.analysis.backtest.backtest_rul`
    (time-sorted prefix windows, engine cloned per day) but every day
    re-fits from scratch and re-derives pump membership by scanning,
    with no memoization, group indices, or worker fan-out.  The parity suite asserts the fast path
    reproduces this output bit for bit.
    """
    plan = _plan_backtest(
        pump_ids, timestamp_days, service_days, da, refresh_every_days
    )

    def member_positions(pump, prefix: int) -> np.ndarray:
        return np.nonzero(plan.pumps[:prefix] == pump)[0]

    points: list[BacktestPoint] = []
    for asof, prefix in zip(plan.asof_days, plan.prefix_counts):
        prefix = int(prefix)
        if prefix < min_fleet_points:
            continue
        engine = _day_engine(ransac, prefix)
        estimator = RULEstimator(zone_d_threshold, engine)
        estimator.fit(plan.service[:prefix], plan.features[:prefix])
        if not estimator.n_models:
            continue
        points.extend(
            _predict_day(
                plan,
                estimator,
                asof,
                prefix,
                member_positions,
                min_history_per_pump,
                true_life_days,
            )
        )
    return BacktestResult(points=points)
