"""Per-stage wall-clock instrumentation for the analysis runtime.

A :class:`RuntimeProfile` collects named stage timings (with item counts)
and scalar counters while an engine run executes, then renders them as an
aligned text report — the measurement surface behind ``repro analyze
--profile``.  Recording is cheap (one ``perf_counter`` pair per stage
entry) and unlocked: every recorder runs on the engine's thread, and
worker threads never receive the profile.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class StageStats:
    """Accumulated timing of one named stage.

    Attributes:
        name: stage identifier, e.g. ``"transform"``.
        calls: number of times the stage ran.
        seconds: total wall-clock time across calls.
        items: total work items processed (0 when the stage has no
            natural unit).
    """

    name: str
    calls: int = 0
    seconds: float = 0.0
    items: int = 0

    @property
    def ms_per_item(self) -> float:
        """Mean milliseconds per item (0.0 when no items were counted)."""
        if self.items <= 0:
            return 0.0
        return self.seconds * 1000.0 / self.items

    @property
    def items_per_second(self) -> float:
        """Throughput in items/s (0.0 without items or elapsed time)."""
        if self.items <= 0 or self.seconds <= 0:
            return 0.0
        return self.items / self.seconds


@dataclass
class RuntimeProfile:
    """Mutable collection of stage timings and counters for one run."""

    stages: dict[str, StageStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str, items: int = 0):
        """Context manager timing one stage execution.

        Args:
            name: stage identifier; repeated entries accumulate.
            items: number of work items this execution processed.
        """
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start, items)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record ``seconds`` of wall-clock (and ``items`` processed)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats(name)
        stats.calls += 1
        stats.seconds += seconds
        stats.items += items

    def count(self, name: str, n: int = 1) -> None:
        """Increment a scalar counter (cache hits, worker chunks, ...)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_supervision(self, delta: dict[str, int]) -> None:
        """Fold a fleet supervision tally into the counters.

        ``delta`` is a :meth:`SupervisionReport.as_dict`-shaped mapping
        (typically the difference over one run); each field lands as a
        ``supervision_*`` counter so the profile report and JSON export
        surface restart/salvage activity alongside cache statistics.
        """
        for key in (
            "restarts",
            "worker_deaths",
            "hung_chunks",
            "salvaged_chunks",
            "abandoned_chunks",
        ):
            self.count(f"supervision_{key}", int(delta.get(key, 0)))

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages.values())

    def as_dict(self) -> dict:
        """Plain-dict snapshot (for JSON export and tests)."""
        return {
            "stages": {
                name: {
                    "calls": s.calls,
                    "seconds": s.seconds,
                    "items": s.items,
                    "items_per_second": s.items_per_second,
                }
                for name, s in self.stages.items()
            },
            "counters": dict(self.counters),
        }

    def report(self) -> str:
        """Aligned text table of stages (insertion order) and counters."""
        lines = ["RUNTIME PROFILE:"]
        total = self.total_seconds
        header = (
            f"  {'stage':<22} {'calls':>6} {'items':>9} "
            f"{'seconds':>9} {'ms/item':>9} {'items/s':>10} {'share':>7}"
        )
        lines.append(header)
        for stats in self.stages.values():
            share = stats.seconds / total if total > 0 else 0.0
            per_item = f"{stats.ms_per_item:9.3f}" if stats.items else f"{'-':>9}"
            throughput = (
                f"{stats.items_per_second:10.1f}"
                if stats.items_per_second > 0
                else f"{'-':>10}"
            )
            lines.append(
                f"  {stats.name:<22} {stats.calls:>6} {stats.items:>9} "
                f"{stats.seconds:>9.3f} {per_item} {throughput} {share:>6.1%}"
            )
        lines.append(f"  {'total':<22} {'':>6} {'':>9} {total:>9.3f}")
        if self.counters:
            lines.append("  counters: " + "  ".join(
                f"{name}={value}" for name, value in sorted(self.counters.items())
            ))
        return "\n".join(lines)
