"""Fleet supervision: deadlines, restarts, salvage, and parity.

The self-healing execution path must be invisible when nothing goes
wrong (bit-identical output, zero tallied activity) and must recover —
restart with backoff, salvage, or fail loudly per policy — when workers
die or hang.  Faults are drawn parent-side through a scripted duck-typed
injector so every scenario is deterministic.
"""

from __future__ import annotations

from collections import deque

import pytest

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

    ``kills`` / ``hangs`` are consumed one entry per chunk submission, in
    submission order; exhausted scripts mean "no fault".
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
        plain = FleetExecutor(max_workers=workers, chunk_size=4)
        supervised = FleetExecutor(
            max_workers=workers, chunk_size=4, supervision=FAST
        )
        assert supervised.map_ordered(double, items) == plain.map_ordered(
            double, items
        )
        assert not supervised.supervision_report.has_activity
        assert supervised.supervision_report.chunks == 10

    def test_unsupervised_executor_has_no_report(self):
        assert FleetExecutor(max_workers=2).supervision_report is None


class TestRestarts:
    def test_serial_restarts_killed_chunks(self):
        ex = FleetExecutor(
            max_workers=0,
            chunk_size=2,
            injector=ScriptedFaults(kills=[1, 0, 1]),
            supervision=FAST,
        )
        assert ex.map_ordered(double, list(range(6))) == [0, 2, 4, 6, 8, 10]
        report = ex.supervision_report
        assert report.worker_deaths == 2
        assert report.restarts == 2
        assert report.abandoned_chunks == 0

    def test_thread_pool_restarts_killed_chunks(self):
        ex = FleetExecutor(
            max_workers=2,
            chunk_size=3,
            injector=ScriptedFaults(kills=[1, 1]),
            supervision=FAST,
        )
        items = list(range(12))
        assert ex.map_ordered(double, items) == [double(x) for x in items]
        assert ex.supervision_report.worker_deaths == 2
        assert ex.supervision_report.restarts == 2

    def test_hung_chunk_is_deadlined_and_restarted(self):
        policy = SupervisionPolicy(
            chunk_deadline_s=0.15,
            poll_interval_s=0.02,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
        )
        ex = FleetExecutor(
            max_workers=2,
            chunk_size=4,
            injector=ScriptedFaults(hangs=[0.6]),
            supervision=policy,
        )
        items = list(range(8))
        assert ex.map_ordered(double, items) == [double(x) for x in items]
        assert ex.supervision_report.hung_chunks == 1
        assert ex.supervision_report.restarts == 1

    def test_restart_queued_behind_hung_threads_is_not_deadlined(self):
        """Both threads sleep out their hangs after being deadlined, so
        the fault-free restarts wait for a thread; their deadline runs
        from when they start, not from when they were queued."""
        policy = SupervisionPolicy(
            chunk_deadline_s=0.15,
            poll_interval_s=0.02,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            max_restarts=2,
        )
        ex = FleetExecutor(
            max_workers=2,
            chunk_size=4,
            injector=ScriptedFaults(hangs=[1.0, 1.0]),
            supervision=policy,
        )
        items = list(range(8))
        assert ex.map_ordered(double, items) == [double(x) for x in items]
        report = ex.supervision_report
        assert report.hung_chunks == 2
        assert report.restarts == 2
        assert report.abandoned_chunks == 0


class TestExhaustion:
    def test_salvage_returns_abandoned_sentinels(self):
        policy = SupervisionPolicy(
            max_restarts=2, backoff_base_s=0.0, backoff_max_s=0.0, salvage=True
        )
        ex = FleetExecutor(
            max_workers=0,
            chunk_size=2,
            injector=ScriptedFaults(kills=[1] * 100),
            supervision=policy,
        )
        out = ex.map_ordered(double, list(range(4)))
        assert out == [ABANDONED] * 4
        report = ex.supervision_report
        assert report.abandoned_chunks == 2
        assert report.abandoned_items == 4
        assert report.worker_deaths == 6  # 2 chunks x (1 + 2 restarts)

    def test_partial_salvage_keeps_surviving_chunks(self):
        policy = SupervisionPolicy(
            max_restarts=1, backoff_base_s=0.0, backoff_max_s=0.0, salvage=True
        )
        # Chunk 0 dies twice (abandoned); chunks 1 and 2 run clean.
        ex = FleetExecutor(
            max_workers=0,
            chunk_size=2,
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
            chunk_size=8,
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
            chunk_size=1,
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
            {"chunk_deadline_s": 0.0},
            {"chunk_deadline_s": -1.0},
            {"max_restarts": -1},
            {"backoff_base_s": -0.1},
            {"poll_interval_s": 0.0},
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
