"""Crash-recovery chaos: worker kills and at-rest corruption, end to end.

The ISSUE-4 acceptance scenarios: a chaos run with worker kills restarts
its way to a report whose non-supervision bytes match the fault-free
reference; at-rest BLOB corruption is caught by checksums, quarantined
into the dead-letter table, and every *surviving* row's transform output
stays bit-identical to the fault-free run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import BUILTIN_PLANS, run_chaos_scenario
from repro.chaos.plan import FLEET_WORKER_KILL, FaultPlan, FaultSpec
from repro.runtime import SupervisionPolicy

from tests.chaos.conftest import chaos_seed

pytestmark = pytest.mark.chaos

#: Kill storm: enough pressure that restarts fire under every seed
#: (4 fan-out chunks at p=0.6 leave ~2.6% odds of a quiet run), with a
#: restart budget that makes abandonment numerically impossible.
KILL_STORM = FaultPlan(
    "kill-storm", seed=0, specs=(FaultSpec(FLEET_WORKER_KILL, "kill", 0.6),)
)

FAST_SUPERVISION = SupervisionPolicy(
    max_restarts=40, backoff_base_s=0.0, backoff_max_s=0.0
)


def _strip_supervision(text: str) -> str:
    """Report text minus the SUPERVISION section (and its blank line)."""
    lines = text.split("\n")
    if "SUPERVISION:" not in lines:
        return text
    i = lines.index("SUPERVISION:")
    return "\n".join(lines[: i - 1] + lines[i + 2 :])


def _features_by_row(report) -> dict[tuple[int, int], tuple[np.ndarray, ...]]:
    """Each analyzed row's peaks, plus its PSD row where the run kept it."""
    pipeline = report.pipeline
    peaks = pipeline.peaks
    keys = list(zip(report.pump_ids.tolist(), report.measurement_ids.tolist()))
    rows = {
        key: (peaks.frequencies[i], peaks.values[i], peaks.counts[i:i + 1])
        for i, key in enumerate(keys)
    }
    for i, psd in zip(pipeline.psd_rows.tolist(), pipeline.psd):
        rows[keys[i]] += (psd,)
    return rows


def _assert_survivors_identical(result, reference) -> None:
    expected = _features_by_row(reference)
    for key, arrays in _features_by_row(result).items():
        assert len(arrays) == len(expected[key])
        for got, want in zip(arrays, expected[key]):
            np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def reference(scenario, fleet_dataset):
    return run_chaos_scenario(None, scenario, dataset=fleet_dataset)


def test_worker_kills_restart_and_output_stays_bit_identical(
    reference, scenario, fleet_dataset
):
    supervised = replace(scenario, max_workers=2, supervision=FAST_SUPERVISION)
    result = run_chaos_scenario(
        KILL_STORM.with_seed(chaos_seed()), supervised, dataset=fleet_dataset
    )
    assert result.failure is None
    assert result.supervision.worker_deaths > 0
    assert result.supervision.restarts > 0
    assert result.supervision.abandoned_chunks == 0
    assert "SUPERVISION:" in result.text
    # Restarted chunks recompute the same floats: everything except the
    # supervision tally is byte-identical to the fault-free reference.
    assert _strip_supervision(result.text) == reference.text


def test_worker_carnage_report_does_not_depend_on_worker_count(
    scenario, fleet_dataset
):
    """Kill and hang draws follow the fixed chunking, not the thread
    count: the report bytes and the supervision tally match."""
    plan = BUILTIN_PLANS["worker-carnage"].with_seed(chaos_seed())
    serial, threaded = (
        run_chaos_scenario(
            plan, replace(scenario, max_workers=workers), dataset=fleet_dataset
        )
        for workers in (0, 2)
    )
    assert serial.failure is None and threaded.failure is None
    assert threaded.text == serial.text
    assert threaded.supervision.as_dict() == serial.supervision.as_dict()


def test_blob_corruption_quarantines_and_survivors_stay_bit_identical(
    reference, scenario, fleet_dataset
):
    plan = BUILTIN_PLANS["bit-rot-at-rest"].with_seed(chaos_seed())
    result = run_chaos_scenario(plan, scenario, dataset=fleet_dataset)
    assert result.failure is None
    assert len(result.corrupted) > 0

    health = result.report.data_health
    assert health.n_corrupt == len(result.corrupted)
    assert health.dead_letters == len(result.dead_letters)
    storage_dead = [d for d in result.dead_letters if d.stage == "storage"]
    assert {(d.pump_id, d.measurement_id) for d in storage_dead} == set(
        result.corrupted
    )
    assert "corrupt at rest" in result.text

    # Quarantined rows are gone; every surviving row's PSD matches the
    # fault-free run byte for byte.
    analyzed = set(
        zip(
            (int(p) for p in result.report.pump_ids),
            (int(m) for m in result.report.measurement_ids),
        )
    )
    assert analyzed.isdisjoint(result.corrupted)
    _assert_survivors_identical(result.report, reference.report)


def test_crash_recovery_plan_completes_with_quarantine_and_salvage(
    reference, scenario, fleet_dataset
):
    """The combined acceptance plan: kills (p=0.2) + bit rot (p=0.05)
    completes without raising, auto-arms supervision, quarantines every
    corrupt row, and keeps surviving outputs bit-identical."""
    plan = BUILTIN_PLANS["crash-recovery"].with_seed(chaos_seed())
    supervised = replace(scenario, max_workers=2)
    result = run_chaos_scenario(plan, supervised, dataset=fleet_dataset)
    assert result.failure is None
    assert result.supervision is not None  # auto-armed by the runner
    assert len(result.corrupted) > 0

    health = result.report.data_health
    assert health.n_corrupt == len(result.corrupted)
    assert health.dead_letters == len(result.dead_letters)
    _assert_survivors_identical(result.report, reference.report)


def test_crash_recovery_replay_is_identical(scenario, fleet_dataset):
    """Same plan, same seed: same corrupt rows, same restarts, same
    report bytes — recovery is an experiment, not a dice roll."""
    plan = BUILTIN_PLANS["crash-recovery"].with_seed(chaos_seed())
    first = run_chaos_scenario(plan, scenario, dataset=fleet_dataset)
    second = run_chaos_scenario(plan, scenario, dataset=fleet_dataset)
    assert first.corrupted == second.corrupted
    assert first.injector.counts == second.injector.counts
    assert len(first.dead_letters) == len(second.dead_letters)
    assert first.text == second.text
