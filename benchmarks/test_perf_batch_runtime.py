"""Performance benchmark: the batched pipeline vs its scalar oracle.

The runtime layer's acceptance numbers, over two workloads:

* a **synthetic** 960 × 1024 × 3 matrix (fast, low-variance timing), and
* the **paper-scale fleet** — ``FleetConfig.paper_scale()``'s 12-pump,
  90-day deployment, at the benchmark suite's default report density
  (~8,640 measurements; set ``REPRO_PAPER_SCALE=1`` for the full
  155,520-measurement volume).

Each workload runs three configurations:

* **scalar** — the oracle ``tests.reference.pipeline.ReferencePipeline``,
  per-measurement loops everywhere;
* **batch cold** — a fresh :class:`AnalysisPipeline` (empty row memo): the
  vectorized kernels alone (single 2-D DCT, batched smoothing and peak
  scan, broadcast calibration, the packed Algorithm 1 distance kernel);
* **batch warm** — the same pipeline re-analyzing identical data, the
  operational steady state (``analyze`` → ``schedule`` → ``dashboard``
  all replay the same window): the content-addressed row memo recalls
  every row's transform outputs and harmonic peaks, so only the packed
  distance kernel and the model layer run again.

Gates (minimum over rounds, parity asserted on the results so every
speedup is for *bit-identical* outputs):

* synthetic: cold ≥ 1.5×, warm ≥ 3×;
* fleet: cold ≥ 2×, warm ≥ 3×.  The fleet cold gate is the headline of
  the vectorized Algorithm 1 work — peak matching used to dominate the
  fleet-scale cold path and kept it near 1×; the packed kernel plus
  single-pass masked top-k moved it past 2×.

Set ``REPRO_PERF_RELAXED=1`` (the PR-smoke CI job does) to lower the
gates to regression-tripwire levels for noisy shared runners; main
branch CI runs the full gates.

Every run writes ``BENCH_3.json`` to the repo root — workload shapes,
rounds, raw timings, speedups and per-gate pass status — so CI can
archive the numbers as an artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from common import rul_fleet
from repro.core.classify import ZONE_A, ZONE_BC, ZONE_D
from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from tests.reference.pipeline import ReferencePipeline

pytestmark = pytest.mark.perf

N_PUMPS = 8
PER_PUMP = 120
K = 1024
ROUNDS = 3
FLEET_ROUNDS = 3

RELAXED = os.environ.get("REPRO_PERF_RELAXED", "") not in ("", "0")

#: Gate values: full (main-branch CI / local runs) vs relaxed (PR smoke on
#: noisy shared runners — still trips on a real regression to ~parity).
GATES = {
    "synthetic_cold": 1.1 if RELAXED else 1.5,
    "synthetic_warm": 1.5 if RELAXED else 3.0,
    "fleet_cold": 1.2 if RELAXED else 2.0,
    "fleet_warm": 1.5 if RELAXED else 3.0,
}

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_3.json"

#: Mutable run record; the module-scoped reporter fixture writes it to
#: ``BENCH_3.json`` after the last test in this module finishes.
_REPORT: dict = {
    "benchmark": "batch_runtime",
    "relaxed_gates": RELAXED,
    "gates": dict(GATES),
    "workloads": {},
}

_TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Persist the machine-readable benchmark record at module teardown."""
    yield
    BENCH_PATH.write_text(json.dumps(_REPORT, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    ids, days, blocks = [], [], []
    t = np.arange(K) / 2000.0
    for pump in range(N_PUMPS):
        offset = rng.uniform(-0.5, 0.5, 3)
        for m in range(PER_PUMP):
            base = np.sin(2 * np.pi * 50 * t * (1 + 0.001 * pump))[:, None]
            base = base * rng.uniform(0.5, 1.5)
            noise = rng.normal(0, 0.05 + 0.002 * m, (K, 3))
            ids.append(pump)
            days.append(m // 4)
            blocks.append(base + noise + offset)
    labels: dict[int, str] = {}
    for pump in range(4):
        for m in range(8):
            labels[pump * PER_PUMP + m] = "A"
        labels[pump * PER_PUMP + PER_PUMP - 1] = "D"
        labels[pump * PER_PUMP + PER_PUMP - 2] = "BC"
        labels[pump * PER_PUMP + PER_PUMP - 3] = "BC"
        labels[pump * PER_PUMP + PER_PUMP - 4] = "D"
    return (
        np.asarray(ids),
        np.asarray(days, dtype=float),
        np.stack(blocks),
        labels,
    )


def fresh_batch() -> AnalysisPipeline:
    return AnalysisPipeline(PipelineConfig())


def test_perf_scalar_reference(benchmark, workload):
    ids, days, blocks, labels = workload
    pipeline = ReferencePipeline(PipelineConfig())
    result = benchmark.pedantic(
        lambda: pipeline.run(ids, days, blocks, labels), rounds=ROUNDS, iterations=1
    )
    _TIMINGS["scalar"] = benchmark.stats.stats.min
    assert result.da.size == ids.size


def test_perf_batch_cold(benchmark, workload):
    ids, days, blocks, labels = workload
    result = benchmark.pedantic(
        lambda: fresh_batch().run(ids, days, blocks, labels),
        rounds=ROUNDS,
        iterations=1,
    )
    _TIMINGS["batch_cold"] = benchmark.stats.stats.min
    # Same floats as the scalar reference.
    reference = ReferencePipeline(PipelineConfig()).run(ids, days, blocks, labels)
    assert np.array_equal(result.da, reference.da, equal_nan=True)


def test_perf_batch_warm(benchmark, workload):
    ids, days, blocks, labels = workload
    pipeline = fresh_batch()
    pipeline.run(ids, days, blocks, labels)  # populate the row memo
    result = benchmark.pedantic(
        lambda: pipeline.run(ids, days, blocks, labels), rounds=ROUNDS, iterations=1
    )
    _TIMINGS["batch_warm"] = benchmark.stats.stats.min
    assert pipeline.transform_hits >= ids.size
    assert result.da.size == ids.size


def test_perf_speedup_gates(workload):
    """Recorded speedups; runs after the three timing benchmarks above."""
    if len(_TIMINGS) < 3:  # pragma: no cover - benchmark-only collection
        pytest.skip("timing benchmarks did not run")
    ids = workload[0]
    scalar = _TIMINGS["scalar"]
    cold = scalar / _TIMINGS["batch_cold"]
    warm = scalar / _TIMINGS["batch_warm"]
    _REPORT["workloads"]["synthetic"] = {
        "shape": [int(ids.size), K, 3],
        "rounds": ROUNDS,
        "seconds": {
            "scalar": _TIMINGS["scalar"],
            "batch_cold": _TIMINGS["batch_cold"],
            "batch_warm": _TIMINGS["batch_warm"],
        },
        "speedup": {"cold": cold, "warm": warm},
        "gate_pass": {
            "cold": cold >= GATES["synthetic_cold"],
            "warm": warm >= GATES["synthetic_warm"],
        },
    }
    print(
        f"\nbatch runtime speedup over scalar ({N_PUMPS * PER_PUMP} x {K} x 3): "
        f"cold {cold:.2f}x, warm (cached re-analysis) {warm:.2f}x"
    )
    assert cold >= GATES["synthetic_cold"]
    assert warm >= GATES["synthetic_warm"]


# ----------------------------------------------------------------------
# Paper-scale fleet (FleetConfig.paper_scale() deployment shape).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_workload():
    dataset = rul_fleet(7)
    pumps, service, samples = dataset.measurement_arrays()
    _, labels = dataset.expert_labels({ZONE_A: 60, ZONE_BC: 60, ZONE_D: 40})
    config = PipelineConfig(
        moving_average_window=8,
        ransac_min_inliers=max(150, len(dataset.measurements) // 20),
        ransac_residual_threshold=0.05,
    )
    return pumps, service, samples, labels, config


def test_perf_fleet_scale_speedup(fleet_workload):
    """Scalar vs cold vs warm on the 12-pump fleet, min over rounds."""
    import time

    pumps, service, samples, labels, config = fleet_workload

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def fresh():
        return AnalysisPipeline(config)

    # Untimed warmup: faults in allocator arenas and FFT plan caches at
    # fleet scale so the timed rounds measure compute, not first-touch.
    fresh().run(pumps, service, samples, labels)

    # Each configuration's rounds run back to back, cold before scalar:
    # the scalar reference churns millions of small per-row allocations
    # that fragment the allocator and measurably slow a *following*
    # large-block batch round, so interleaving would bias the cold
    # numbers.  Min-of-rounds then takes each configuration's best
    # clean round.
    cold_times = []
    for _ in range(FLEET_ROUNDS):
        pipeline = fresh()
        cold_result, c = timed(lambda: pipeline.run(pumps, service, samples, labels))
        cold_times.append(c)
    cold_s = min(cold_times)

    warm_times = []
    for _ in range(FLEET_ROUNDS):
        warm_result, w = timed(lambda: pipeline.run(pumps, service, samples, labels))
        warm_times.append(w)
    warm_s = min(warm_times)

    scalar_times = []
    for _ in range(FLEET_ROUNDS):
        reference, s = timed(
            lambda: ReferencePipeline(config).run(pumps, service, samples, labels)
        )
        scalar_times.append(s)
    scalar_s = min(scalar_times)

    assert np.array_equal(reference.da, cold_result.da, equal_nan=True)
    assert np.array_equal(reference.da, warm_result.da, equal_nan=True)

    cold = scalar_s / cold_s
    warm = scalar_s / warm_s
    _REPORT["workloads"]["fleet"] = {
        "shape": [int(samples.shape[0]), int(samples.shape[1]), 3],
        "rounds": FLEET_ROUNDS,
        "seconds": {"scalar": scalar_s, "batch_cold": cold_s, "batch_warm": warm_s},
        "speedup": {"cold": cold, "warm": warm},
        "gate_pass": {
            "cold": cold >= GATES["fleet_cold"],
            "warm": warm >= GATES["fleet_warm"],
        },
    }
    print(
        f"\nfleet-scale ({samples.shape[0]} measurements) speedup over scalar: "
        f"cold {cold:.2f}x, warm (cached re-analysis) {warm:.2f}x "
        f"(scalar {scalar_s:.2f}s, cold {cold_s:.2f}s, warm {warm_s:.2f}s)"
    )
    assert cold >= GATES["fleet_cold"]
    assert warm >= GATES["fleet_warm"]
