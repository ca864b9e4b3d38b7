"""Fig. 15: lifetime models discovered by recursive RANSAC over the fleet.

The paper pools every measurement's (service time, D_a) point across the
12-pump fleet and lets recursive RANSAC discover the linear lifetime
models; it finds exactly two — a fast-ageing Model II (~6-month life) and
a slow-ageing Model I (~18-month life).  This benchmark regenerates the
scatter, the discovered lines and the Zone D threshold crossing, and
verifies the recovered slopes against the simulation's ground truth.
"""

import numpy as np

from common import ARTIFACTS_DIR, rul_fleet_analysis
from repro.simulation.degradation import WEAR_AT_FAILURE
from repro.viz.ascii import ascii_line_plot
from repro.viz.export import write_csv
from tests.reference.ransac import ReferenceRecursiveRANSAC


def run_experiment() -> dict:
    return rul_fleet_analysis()


def test_fig15_lifetime_models(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    dataset, result = out["dataset"], out["result"]
    service, pumps = out["service"], out["pumps"]

    models = result.lifetime_models
    print(f"\nFig. 15: {len(models)} lifetime models over "
          f"{int(result.valid_mask.sum())} valid measurements")
    rows = []
    for i, model in enumerate(models):
        crossing = model.crossing_time(result.zone_d_threshold)
        print(
            f"  model {i + 1}: D_a = {model.slope:.3e} * days + {model.intercept:.3f}"
            f"  support={model.n_inliers}  reaches Zone D at ~{crossing:.0f} days"
        )
        rows.append([i + 1, f"{model.slope:.6e}", f"{model.intercept:.5f}",
                     model.n_inliers, f"{crossing:.1f}"])
    write_csv(
        ARTIFACTS_DIR / "fig15_lifetime_models.csv",
        ["model", "slope_per_day", "intercept", "support", "zone_d_crossing_days"],
        rows,
    )

    valid = result.valid_mask
    order = np.argsort(service[valid])
    sub = order[:: max(1, order.size // 400)]
    print(
        ascii_line_plot(
            service[valid][sub],
            {"D_a": result.da[valid][sub]},
            title="Fleet scatter: D_a vs service time (subsampled)",
            x_label="service days",
            y_label="D_a",
            height=12,
        )
    )
    write_csv(
        ARTIFACTS_DIR / "fig15_scatter.csv",
        ["service_days", "da", "pump"],
        [
            [f"{service[i]:.3f}", f"{result.da[i]:.5f}", int(pumps[i])]
            for i in np.nonzero(valid)[0]
        ],
    )

    # The pipeline's models come from the batched RANSAC engine; the
    # scalar oracle engine on the same pooled scatter must reproduce
    # them bit for bit (same RNG-stream contract, same tie-breaks).
    reference_engine = ReferenceRecursiveRANSAC(
        residual_threshold=0.05,
        min_inliers=max(150, len(dataset.measurements) // 20),
        seed=0,
    )
    replayed = reference_engine.fit(service[valid], result.da[valid])
    assert len(replayed) == len(models)
    for a, b in zip(models, replayed):
        assert a.slope == b.slope and a.intercept == b.intercept
        assert np.array_equal(a.inlier_indices, b.inlier_indices)

    # The paper finds exactly two models; a third duplicate population is
    # tolerated but the dominant two must be distinct.
    assert 2 <= len(models) <= 3
    slopes = sorted(m.slope for m in models[:2])
    assert slopes[1] > 1.5 * slopes[0], "the two populations must differ in rate"

    # Recovered time-to-hazard per model matches the planted populations:
    # Model II pumps live ~180 days, Model I ~540, and the Zone D boundary
    # sits at 85% of life, so crossings near ~150 and ~460 days.
    crossings = sorted(
        m.crossing_time(result.zone_d_threshold) for m in models[:2]
    )
    assert 60 < crossings[0] < 320, f"fast population crossing {crossings[0]:.0f}"
    assert 280 < crossings[1] < 900, f"slow population crossing {crossings[1]:.0f}"

    # All discovered slopes are positive (monotone degradation).
    assert all(m.slope > 0 for m in models)
