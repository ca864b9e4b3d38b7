"""Fleet supervision: restarts, in-line hangs, salvage, and parity.

The supervised path must be invisible when nothing goes wrong
(bit-identical output, zero tallied activity, no sleeping) and must
recover — restart with backoff, salvage, or fail loudly per policy —
when chunks die or hang.  Faults come from a scripted duck-typed
injector so every scenario is deterministic.  A map of ``n`` items runs
as chunks of ``ceil(n / 4)`` items at every worker count.
"""

from __future__ import annotations

from collections import deque

import pytest

import repro.runtime.fleet as fleet_mod
from repro.runtime.fleet import (
    ABANDONED,
    FleetExecutor,
    SupervisionExhaustedError,
    SupervisionPolicy,
    SupervisionReport,
)


def double(x):
    return x * 2


#: A fast policy: no real sleeping between restarts.
FAST = SupervisionPolicy(backoff_base_s=0.0, backoff_max_s=0.0)


class ScriptedFaults:
    """Duck-typed injector with a scripted kill/hang stream.

    ``kills`` / ``hangs`` are consumed one entry per chunk attempt, in
    order; exhausted scripts mean "no fault".
    """

    def __init__(self, kills=(), hangs=()):
        self._kills = deque(kills)
        self._hangs = deque(hangs)

    def kills(self, point):
        return bool(self._kills.popleft()) if self._kills else False

    def delay_s(self, point):
        if point == "fleet.worker_hang" and self._hangs:
            return float(self._hangs.popleft())
        return 0.0

    def maybe_fail(self, point):
        return None


class TestZeroInterventionParity:
    @pytest.mark.parametrize("workers", [0, 3])
    def test_supervised_output_matches_unsupervised(self, workers):
        items = list(range(37))
        plain = FleetExecutor(max_workers=workers)
        supervised = FleetExecutor(max_workers=workers, supervision=FAST)
        assert supervised.map_ordered(double, items) == plain.map_ordered(
            double, items
        )
        assert not supervised.supervision_report.has_activity
        assert supervised.supervision_report.chunks == 4

    def test_unsupervised_executor_has_no_report(self):
        assert FleetExecutor(max_workers=2).supervision_report is None

    def test_policy_without_injector_never_sleeps(self, monkeypatch):
        """A policy alone arms nothing: no fault is drawn, so no hang or
        backoff sleep can happen, and the result is the plain map's."""
        sleeps = []
        monkeypatch.setattr(fleet_mod.time, "sleep", sleeps.append)
        items = [(pump, pump * 10) for pump in (7, 3, 9, 1, 5)]
        plain = FleetExecutor(max_workers=2).map_pumps(double, items)
        supervised = FleetExecutor(max_workers=2, supervision=SupervisionPolicy())
        assert supervised.map_pumps(double, items) == plain
        assert list(plain) == [7, 3, 9, 1, 5]
        assert sleeps == []
        assert not supervised.supervision_report.has_activity


class TestRestarts:
    def test_serial_restarts_killed_chunks(self):
        ex = FleetExecutor(
            max_workers=0,
            injector=ScriptedFaults(kills=[1, 0, 1]),
            supervision=FAST,
        )
        assert ex.map_ordered(double, list(range(6))) == [0, 2, 4, 6, 8, 10]
        report = ex.supervision_report
        assert report.worker_deaths == 2
        assert report.restarts == 2
        assert report.abandoned_chunks == 0

    def test_restarts_do_not_depend_on_worker_count(self):
        """The chunking, and so the fault draws, ignore ``max_workers``."""
        items = list(range(12))
        tallies = []
        for workers in (0, 1, 2, 4):
            ex = FleetExecutor(
                max_workers=workers,
                injector=ScriptedFaults(kills=[0, 1, 1, 0, 1]),
                supervision=FAST,
            )
            assert ex.map_ordered(double, items) == [double(x) for x in items]
            tallies.append(ex.supervision_report.as_dict())
        assert tallies[0]["chunks"] == 4 and tallies[0]["restarts"] == 3
        assert all(tally == tallies[0] for tally in tallies)

    def test_hang_stalls_the_chunk_in_line(self, monkeypatch):
        """A hang is a capped stall before the chunk runs; nothing is
        restarted and ``hung_chunks`` stays 0."""
        sleeps = []
        monkeypatch.setattr(fleet_mod.time, "sleep", sleeps.append)
        ex = FleetExecutor(
            max_workers=2,
            injector=ScriptedFaults(hangs=[0.5, 0.0, 60.0]),
            supervision=FAST,
        )
        items = list(range(8))
        assert ex.map_ordered(double, items) == [double(x) for x in items]
        assert sleeps == [0.5, fleet_mod.MAX_INJECTED_HANG_S]
        report = ex.supervision_report
        assert report.chunks == 4
        assert not report.has_activity


class TestExhaustion:
    def test_salvage_returns_abandoned_sentinels(self):
        policy = SupervisionPolicy(
            max_restarts=2, backoff_base_s=0.0, backoff_max_s=0.0, salvage=True
        )
        ex = FleetExecutor(
            max_workers=0,
            injector=ScriptedFaults(kills=[1] * 100),
            supervision=policy,
        )
        out = ex.map_ordered(double, list(range(8)))
        assert out == [ABANDONED] * 8
        report = ex.supervision_report
        assert report.abandoned_chunks == 4
        assert report.abandoned_items == 8
        assert report.worker_deaths == 12  # 4 chunks x (1 + 2 restarts)

    def test_partial_salvage_keeps_surviving_chunks(self):
        policy = SupervisionPolicy(
            max_restarts=1, backoff_base_s=0.0, backoff_max_s=0.0, salvage=True
        )
        # Chunk 0 dies twice (abandoned); chunks 1 and 2 run clean.
        ex = FleetExecutor(
            max_workers=0,
            injector=ScriptedFaults(kills=[1, 1]),
            supervision=policy,
        )
        out = ex.map_ordered(double, list(range(6)))
        assert out == [ABANDONED, ABANDONED, 4, 6, 8, 10]
        assert ex.supervision_report.salvaged_chunks == 2

    def test_salvage_false_raises(self):
        policy = SupervisionPolicy(
            max_restarts=1, backoff_base_s=0.0, backoff_max_s=0.0, salvage=False
        )
        ex = FleetExecutor(
            max_workers=0,
            injector=ScriptedFaults(kills=[1] * 10),
            supervision=policy,
        )
        with pytest.raises(SupervisionExhaustedError, match="chunk 0"):
            ex.map_ordered(double, list(range(4)))

    def test_map_pumps_drops_abandoned_pumps(self):
        policy = SupervisionPolicy(
            max_restarts=0, backoff_base_s=0.0, backoff_max_s=0.0, salvage=True
        )
        ex = FleetExecutor(
            max_workers=0,
            injector=ScriptedFaults(kills=[0, 1, 0]),
            supervision=policy,
        )
        result = ex.map_pumps(double, [(10, 1), (20, 2), (30, 3)])
        assert result == {10: 2, 30: 6}


class TestPolicyAndReport:
    def test_backoff_doubles_and_caps(self):
        policy = SupervisionPolicy(backoff_base_s=0.01, backoff_max_s=0.05)
        assert policy.backoff_s(0) == 0.01
        assert policy.backoff_s(1) == 0.02
        assert policy.backoff_s(10) == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"backoff_base_s": -0.1},
            {"backoff_max_s": -0.1},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_report_activity_and_dict_roundtrip(self):
        report = SupervisionReport()
        assert not report.has_activity
        report.restarts = 1
        assert report.has_activity
        assert SupervisionReport(**report.as_dict()) == report
