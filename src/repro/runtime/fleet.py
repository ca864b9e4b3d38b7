"""In-line, order-preserving execution of the per-pump chains.

The RUL layer and the spectral diagnoser both run an independent chain of
work per pump (model selection, anchoring, crossing-time projection /
peak extraction over a mean PSD).  :class:`FleetExecutor` runs those
chains in line, in submission order: the chains are short, so handing
them to threads costs more than it saves.  The transform's
:class:`~repro.runtime.batch.RowTransformer` is the one thread pool; it
is sized from :attr:`FleetExecutor.max_workers`, which the pipeline
reads off its executor.  Per-pump chains are pure functions of their
inputs (the RANSAC model discovery, the only seeded stage, runs once on
the pooled fleet *before* the fan-out), so results never depend on the
worker count.

Supervision
-----------
Passing a :class:`SupervisionPolicy` arms the chaos path: items are split
into at most :data:`CHUNKS_PER_MAP` fixed, index-contiguous chunks, and
each chunk attempt draws ``fleet.worker_kill`` and ``fleet.worker_hang``
faults from the injector before it runs.  A hang stalls the chunk in
line; a kill triggers a bounded restart with exponential backoff, and a
chunk that exhausts its restart budget is either salvaged (its items
come back as the :data:`ABANDONED` sentinel and ``map_pumps`` drops the
pump) or raises :class:`SupervisionExhaustedError`.  All activity is
tallied in a :class:`SupervisionReport` on the executor.  The chunking
never depends on the worker count, so neither does the fault stream, and
a supervised run that needed zero interventions is bit-identical to an
unsupervised one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_MAX_WORKERS = 4

#: A supervised map splits its items into at most this many chunks of
#: ``ceil(n / CHUNKS_PER_MAP)`` items; each chunk attempt is one kill/hang
#: draw.
CHUNKS_PER_MAP = 4


class SupervisionExhaustedError(RuntimeError):
    """A chunk burned through its restart budget with ``salvage=False``."""


class _Abandoned:
    """Sentinel for items whose chunk exhausted its restart budget."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<ABANDONED>"


ABANDONED = _Abandoned()


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the fleet executor supervises its chunks.

    Attributes:
        max_restarts: restart budget per chunk (beyond the first attempt).
        backoff_base_s: initial restart backoff; doubles per attempt.
        backoff_max_s: backoff ceiling.
        salvage: when a chunk exhausts its budget, return
            :data:`ABANDONED` for its items (True) instead of raising
            :class:`SupervisionExhaustedError` (False).
    """

    max_restarts: int = 5
    backoff_base_s: float = 0.01
    backoff_max_s: float = 1.0
    salvage: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before restart number ``attempt + 1`` (0-based)."""
        return min(self.backoff_max_s, self.backoff_base_s * (2.0**attempt))


@dataclass
class SupervisionReport:
    """Tally of supervision activity, cumulative over an executor's life.

    ``hung_chunks`` stays in the tally (and the report's SUPERVISION
    line) but always reads 0: an in-line hang is a stall, not a deadline
    miss, and nothing restarts it.
    """

    chunks: int = 0
    restarts: int = 0
    worker_deaths: int = 0
    hung_chunks: int = 0
    salvaged_chunks: int = 0
    abandoned_chunks: int = 0
    abandoned_items: int = 0

    @property
    def has_activity(self) -> bool:
        """True when supervision actually intervened at least once."""
        return bool(
            self.restarts
            or self.worker_deaths
            or self.hung_chunks
            or self.abandoned_chunks
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "chunks": self.chunks,
            "restarts": self.restarts,
            "worker_deaths": self.worker_deaths,
            "hung_chunks": self.hung_chunks,
            "salvaged_chunks": self.salvaged_chunks,
            "abandoned_chunks": self.abandoned_chunks,
            "abandoned_items": self.abandoned_items,
        }


#: Injection point names (duck-typed contract with repro.chaos.inject).
FLEET_TASK_POINT = "fleet.task"
FLEET_KILL_POINT = "fleet.worker_kill"
FLEET_HANG_POINT = "fleet.worker_hang"

#: Cap on injected per-task delay so chaos suites stay fast.
MAX_INJECTED_DELAY_S = 0.1

#: Cap on an injected per-chunk hang, which stalls the map in line.
MAX_INJECTED_HANG_S = 2.0


def resolve_workers(max_workers: int | None) -> int:
    """Worker count for a requested setting (None = auto).

    Auto picks ``min(DEFAULT_MAX_WORKERS, cpu_count)`` — transform tiles
    are short, so a small pool amortizes thread start-up without
    oversubscribing small containers.
    """
    if max_workers is None:
        return max(1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1))
    if max_workers < 0:
        raise ValueError("max_workers must be non-negative")
    return max_workers


def _chunks(n: int) -> list[range]:
    size = max(1, -(-n // CHUNKS_PER_MAP))
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


class FleetExecutor:
    """In-line, order-preserving map over per-pump work items."""

    def __init__(
        self,
        max_workers: int | None = None,
        injector=None,
        task_retry=None,
        supervision: SupervisionPolicy | None = None,
    ):
        """Create an executor.

        Args:
            max_workers: transform thread count the pipeline reads off
                the executor; ``None`` auto-sizes, ``0`` or ``1`` forces
                a serial transform.  The per-pump map always runs in line.
            injector: optional chaos fault injector; every task is
                faulted at ``fleet.task`` (injected delays and transient
                errors).  Under supervision, every chunk attempt
                additionally draws ``fleet.worker_kill`` and
                ``fleet.worker_hang`` faults.
            task_retry: optional retry policy (duck-typed
                :class:`repro.chaos.retry.RetryPolicy`) wrapping each
                task; transient errors are retried in place, preserving
                result ordering.
            supervision: optional :class:`SupervisionPolicy` arming the
                chunked restart path; activity is tallied in
                :attr:`supervision_report`.
        """
        self.max_workers = resolve_workers(max_workers)
        self.injector = injector
        self.task_retry = task_retry
        self.supervision = supervision
        #: Cumulative supervision tally (None when unsupervised).
        self.supervision_report: SupervisionReport | None = (
            SupervisionReport() if supervision is not None else None
        )

    def _call(self, fn: Callable[[T], R], item: T) -> R:
        """Run one task through the fault / retry envelope."""
        if self.injector is None and self.task_retry is None:
            return fn(item)

        def attempt() -> R:
            if self.injector is not None:
                delay = self.injector.delay_s(FLEET_TASK_POINT)
                if delay > 0:
                    time.sleep(min(delay, MAX_INJECTED_DELAY_S))
                self.injector.maybe_fail(FLEET_TASK_POINT)
            return fn(item)

        if self.task_retry is not None:
            return self.task_retry.run(attempt)
        return attempt()

    def _draw_worker_faults(self) -> tuple[bool, float]:
        """Kill/hang draws for one chunk attempt."""
        inj = self.injector
        if inj is None:
            return False, 0.0
        kills = getattr(inj, "kills", None)
        kill = bool(kills(FLEET_KILL_POINT)) if kills is not None else False
        hang = min(inj.delay_s(FLEET_HANG_POINT), MAX_INJECTED_HANG_S)
        return kill, hang

    def _run_chunk(
        self, fn: Callable[[T], R], items: Sequence[T], ci: int, chunk: range
    ) -> list:
        """One supervised chunk: restart on kills, salvage or raise when
        the restart budget runs out."""
        policy = self.supervision
        report = self.supervision_report
        attempt = 0
        while True:
            kill, hang_s = self._draw_worker_faults()
            if hang_s > 0:
                time.sleep(hang_s)
            if not kill:
                done = [self._call(fn, items[i]) for i in chunk]
                report.chunks += 1
                return done
            report.worker_deaths += 1
            if attempt >= policy.max_restarts:
                break
            time.sleep(policy.backoff_s(attempt))
            attempt += 1
            report.restarts += 1
        if not policy.salvage:
            raise SupervisionExhaustedError(
                f"chunk {ci} failed after {attempt + 1} attempts "
                f"(max_restarts={policy.max_restarts})"
            )
        report.abandoned_chunks += 1
        report.abandoned_items += len(chunk)
        return [ABANDONED] * len(chunk)

    def map_ordered(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item in line; results in input order.

        Exceptions raised by ``fn`` propagate to the caller.  Under
        supervision, items of chunks that exhausted their restart budget
        come back as :data:`ABANDONED` (with ``salvage=True``).
        """
        items = list(items)
        if self.supervision is None:
            return [self._call(fn, item) for item in items]
        chunks = _chunks(len(items))
        results = [
            self._run_chunk(fn, items, ci, chunk) for ci, chunk in enumerate(chunks)
        ]
        abandoned = sum(1 for part in results if part and part[0] is ABANDONED)
        if abandoned:
            self.supervision_report.salvaged_chunks += len(chunks) - abandoned
        return [result for part in results for result in part]

    def map_pumps(
        self,
        fn: Callable[..., R],
        pump_items: Iterable[tuple],
    ) -> dict:
        """Run ``fn(*args)`` per ``(pump_id, *args)`` item, keyed results.

        The returned dict preserves the iteration order of ``pump_items``
        (Python dicts are insertion-ordered), so callers that iterate
        pumps in sorted order get a byte-stable report.  Pumps whose
        chunk was abandoned under supervision salvage are absent from the
        dict.
        """
        entries = list(pump_items)
        results = self.map_ordered(
            lambda args: fn(*args), [tuple(entry[1:]) for entry in entries]
        )
        return {
            entry[0]: result
            for entry, result in zip(entries, results)
            if result is not ABANDONED
        }
