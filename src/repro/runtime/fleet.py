"""Parallel per-pump execution with deterministic result ordering.

The RUL layer and the spectral diagnoser both run an independent chain of
work per pump (model selection, anchoring, crossing-time projection /
peak extraction over recent PSDs).  :class:`FleetExecutor` fans those
chains across a ``concurrent.futures`` thread pool — the chains are
numpy-bound, so workers spend most of their time outside the GIL — while
guaranteeing that results are assembled in submission order regardless of
worker scheduling.  Determinism rules:

* work items are split into fixed, index-contiguous chunks up front
  (no work stealing), so the partition never depends on thread timing;
* chunk results are reassembled by chunk index, so output order equals
  input order bit-for-bit;
* no RNG is shared across workers — per-pump chains are pure functions
  of their inputs (the RANSAC model discovery, the only seeded stage,
  runs once on the pooled fleet *before* the fan-out).

``max_workers=0`` or a single-item workload degrades to a plain in-line
loop, which is also the reference behaviour the determinism tests
compare against.

Supervision
-----------
Passing a :class:`SupervisionPolicy` arms the self-healing execution
path: each chunk runs under a deadline budget, dead workers (a raised
:class:`WorkerKilledError`) trigger a bounded restart with exponential
backoff, and chunks that exhaust their restart budget are either
salvaged (their items come back as the :data:`ABANDONED` sentinel and
``map_pumps`` drops the pump) or raise :class:`SupervisionExhaustedError`.
All activity is tallied in a :class:`SupervisionReport` on the executor.
Because chunk boundaries and result assembly are unchanged, a supervised
run that needed zero interventions is bit-identical to an unsupervised
one.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_MAX_WORKERS = 4


class WorkerKilledError(RuntimeError):
    """A fleet worker died mid-chunk."""


class SupervisionExhaustedError(RuntimeError):
    """A chunk burned through its restart budget with ``salvage=False``."""


class _Abandoned:
    """Sentinel for items whose chunk exhausted its restart budget."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<ABANDONED>"


ABANDONED = _Abandoned()


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the fleet executor supervises its workers.

    Attributes:
        chunk_deadline_s: wall-clock budget per chunk attempt before it is
            declared hung and restarted; ``None`` disables the deadline.
            Enforced only on the thread pool — a serial run has no second
            worker to take over a hung chunk.  The clock starts when the
            attempt starts on a thread, so a restart queued behind busy
            threads is not timed while it waits.
        max_restarts: restart budget per chunk (beyond the first attempt).
        backoff_base_s: initial restart backoff; doubles per attempt.
        backoff_max_s: backoff ceiling.
        salvage: when a chunk exhausts its budget, return
            :data:`ABANDONED` for its items (True) instead of raising
            :class:`SupervisionExhaustedError` (False).
        poll_interval_s: supervisor wake-up interval while enforcing a
            deadline.
    """

    chunk_deadline_s: float | None = 30.0
    max_restarts: int = 5
    backoff_base_s: float = 0.01
    backoff_max_s: float = 1.0
    salvage: bool = True
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.chunk_deadline_s is not None and self.chunk_deadline_s <= 0:
            raise ValueError("chunk_deadline_s must be positive or None")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff must be non-negative")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before restart number ``attempt + 1`` (0-based)."""
        return min(self.backoff_max_s, self.backoff_base_s * (2.0**attempt))


@dataclass
class SupervisionReport:
    """Tally of supervision activity, cumulative over an executor's life."""

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

#: Cap on injected worker hangs — long enough to trip a test deadline,
#: short enough that zombie workers drain quickly.
MAX_INJECTED_HANG_S = 2.0


def resolve_workers(max_workers: int | None) -> int:
    """Worker count for a requested setting (None = auto).

    Auto picks ``min(DEFAULT_MAX_WORKERS, cpu_count)`` — per-pump chains
    are short, so a small pool amortizes thread start-up without
    oversubscribing small containers.
    """
    if max_workers is None:
        return max(1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1))
    if max_workers < 0:
        raise ValueError("max_workers must be non-negative")
    return max_workers


class FleetExecutor:
    """Chunked, order-preserving parallel map over per-pump work items."""

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        injector=None,
        task_retry=None,
        supervision: SupervisionPolicy | None = None,
    ):
        """Create an executor.

        Args:
            max_workers: worker-pool size; ``None`` auto-sizes, ``0`` or
                ``1`` forces serial in-line execution.
            chunk_size: work items per scheduled chunk; ``None`` derives
                ``ceil(n / (4 * workers))`` per call so every worker gets
                a few chunks to smooth uneven per-pump costs.
            injector: optional chaos fault injector; every task is
                faulted at ``fleet.task`` (injected delays and transient
                errors), in serial and pooled mode alike so the fault
                stream is identical for both.  Under supervision, chunk
                submissions additionally draw ``fleet.worker_kill`` and
                ``fleet.worker_hang`` faults.
            task_retry: optional retry policy (duck-typed
                :class:`repro.chaos.retry.RetryPolicy`) wrapping each
                task; transient errors are retried in place, preserving
                result ordering.
            supervision: optional :class:`SupervisionPolicy` arming the
                self-healing execution path; activity is tallied in
                :attr:`supervision_report`.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.max_workers = resolve_workers(max_workers)
        self.chunk_size = chunk_size
        self.injector = injector
        self.task_retry = task_retry
        self.supervision = supervision
        #: Cumulative supervision tally (None when unsupervised).
        self.supervision_report: SupervisionReport | None = (
            SupervisionReport() if supervision is not None else None
        )
        #: Path the most recent map actually took ("serial" or
        #: "thread") — observability for tests and profiles.
        self.last_backend: str | None = None

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

    def _chunks(self, n: int) -> list[range]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n // (4 * max(1, self.max_workers))))
        return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]

    # ------------------------------------------------------------------
    # Supervision internals.
    # ------------------------------------------------------------------
    def _draw_worker_faults(self) -> tuple[bool, float]:
        """Parent-side kill/hang draws for one chunk attempt.

        Drawn in the supervisor (never in workers) so the fault stream is
        a deterministic function of the submission sequence, whatever the
        thread scheduling.
        """
        inj = self.injector
        if inj is None:
            return False, 0.0
        kills = getattr(inj, "kills", None)
        kill = bool(kills(FLEET_KILL_POINT)) if kills is not None else False
        hang = min(inj.delay_s(FLEET_HANG_POINT), MAX_INJECTED_HANG_S)
        return kill, hang

    def _exhaust_chunk(
        self, results: dict[int, list], chunks: list[range], ci: int, attempt: int
    ) -> None:
        """A chunk burned its restart budget: salvage or raise."""
        policy = self.supervision
        report = self.supervision_report
        if not policy.salvage:
            raise SupervisionExhaustedError(
                f"chunk {ci} failed after {attempt + 1} attempts "
                f"(max_restarts={policy.max_restarts})"
            )
        report.abandoned_chunks += 1
        report.abandoned_items += len(chunks[ci])
        results[ci] = [ABANDONED] * len(chunks[ci])

    def _map_supervised_serial(
        self, fn: Callable[[T], R], items: Sequence[T], chunks: list[range]
    ) -> list:
        policy = self.supervision
        report = self.supervision_report
        self.last_backend = "serial"
        results: dict[int, list] = {}
        for ci, chunk in enumerate(chunks):
            attempt = 0
            while True:
                kill, hang_s = self._draw_worker_faults()
                if hang_s > 0:
                    time.sleep(hang_s)
                if not kill:
                    results[ci] = [self._call(fn, items[i]) for i in chunk]
                    report.chunks += 1
                    break
                report.worker_deaths += 1
                if attempt >= policy.max_restarts:
                    self._exhaust_chunk(results, chunks, ci, attempt)
                    break
                time.sleep(policy.backoff_s(attempt))
                attempt += 1
                report.restarts += 1
        self._tally_salvage(results, len(chunks))
        out: list = []
        for ci in range(len(chunks)):
            out.extend(results[ci])
        return out

    def _run_chunk_with_faults(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunk: range,
        kill: bool,
        hang_s: float,
        started: list,
    ) -> list:
        """Pooled chunk body honouring parent-drawn faults.

        Stamps ``started[0]`` on entry: the supervisor times the attempt's
        deadline from there, not from its submission.
        """
        started[0] = time.monotonic()
        if hang_s > 0:
            time.sleep(hang_s)
        if kill:
            raise WorkerKilledError("injected worker death")
        return [self._call(fn, items[i]) for i in chunk]

    def _map_supervised_pooled(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        chunks: list[range],
    ) -> list:
        policy = self.supervision
        report = self.supervision_report
        self.last_backend = "thread"
        n_chunks = len(chunks)
        results: dict[int, list] = {}
        #: (chunk_index, attempt) queue; attempts beyond 0 are restarts.
        pending: deque[tuple[int, int]] = deque((ci, 0) for ci in range(n_chunks))
        #: future -> (chunk_index, attempt, [started_at or None])
        inflight: dict = {}

        def submit(pool, ci: int, attempt: int) -> None:
            kill, hang_s = self._draw_worker_faults()
            started: list = [None]
            fut = pool.submit(
                self._run_chunk_with_faults,
                fn,
                items,
                chunks[ci],
                kill,
                hang_s,
                started,
            )
            inflight[fut] = (ci, attempt, started)

        def requeue(ci: int, attempt: int) -> None:
            """Restart a failed chunk attempt (or give up on it)."""
            if attempt >= policy.max_restarts:
                self._exhaust_chunk(results, chunks, ci, attempt)
                return
            time.sleep(policy.backoff_s(attempt))
            report.restarts += 1
            pending.append((ci, attempt + 1))

        pool = ThreadPoolExecutor(max_workers=self.max_workers)
        try:
            while len(results) < n_chunks:
                while pending and len(inflight) < self.max_workers:
                    ci, attempt = pending.popleft()
                    submit(pool, ci, attempt)
                if not inflight:
                    # Everything left was abandoned via salvage.
                    break
                timeout = (
                    policy.poll_interval_s
                    if policy.chunk_deadline_s is not None
                    else None
                )
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    ci, attempt, _ = inflight.pop(fut)
                    try:
                        results[ci] = fut.result()
                        report.chunks += 1
                    except WorkerKilledError:
                        report.worker_deaths += 1
                        requeue(ci, attempt)
                if policy.chunk_deadline_s is not None:
                    now = time.monotonic()
                    for fut in list(inflight):
                        ci, attempt, (t0,) = inflight[fut]
                        if t0 is not None and now - t0 > policy.chunk_deadline_s:
                            # Can't preempt the worker — drop the future
                            # (its late result is ignored) and restart
                            # the chunk elsewhere.
                            del inflight[fut]
                            report.hung_chunks += 1
                            report.worker_deaths += 1
                            requeue(ci, attempt)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        self._tally_salvage(results, n_chunks)
        out: list = []
        for ci in range(n_chunks):
            out.extend(results[ci])
        return out

    def _tally_salvage(self, results: dict[int, list], n_chunks: int) -> None:
        """Count chunks whose results survived a map with abandonment."""
        abandoned_here = sum(
            1
            for ci in range(n_chunks)
            if results[ci] and results[ci][0] is ABANDONED
        )
        if abandoned_here:
            self.supervision_report.salvaged_chunks += n_chunks - abandoned_here

    def map_ordered(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results in input order.

        Exceptions raised by ``fn`` propagate to the caller (the first
        one in chunk order), matching the serial loop's behaviour.  Under
        supervision, items of chunks that exhausted their restart budget
        come back as :data:`ABANDONED` (with ``salvage=True``).
        """
        items = list(items)
        n = len(items)
        if n == 0:
            return []
        if self.max_workers <= 1 or n == 1:
            if self.supervision is not None:
                return self._map_supervised_serial(fn, items, self._chunks(n))
            self.last_backend = "serial"
            return [self._call(fn, item) for item in items]

        chunks = self._chunks(n)
        if self.supervision is not None:
            return self._map_supervised_pooled(fn, items, chunks)

        def run_chunk(chunk: range) -> list[R]:
            return [self._call(fn, items[i]) for i in chunk]

        self.last_backend = "thread"
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            chunk_results = list(pool.map(run_chunk, chunks))
        out: list[R] = []
        for partial in chunk_results:
            out.extend(partial)
        return out

    def map_pumps(
        self,
        fn: Callable[..., R],
        pump_items: Iterable[tuple],
    ) -> dict:
        """Run ``fn(*args)`` per ``(pump_id, *args)`` item, keyed results.

        The returned dict preserves the iteration order of ``pump_items``
        (Python dicts are insertion-ordered), so callers that iterate
        pumps in sorted order get a byte-stable report regardless of the
        worker count.  Pumps whose chunk was abandoned under supervision
        salvage are absent from the dict.
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
