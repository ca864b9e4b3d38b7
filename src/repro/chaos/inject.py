"""Seedable fault injector: turns a :class:`~repro.chaos.plan.FaultPlan`
into concrete packet/measurement/record mutations at named hooks.

The injector is the only object the core pipeline modules ever see, and
they see it *duck-typed*: ``flush_transfer``, the gateway, the retrieval
API and the fleet executor each accept an optional ``injector`` and call
the narrow method their injection point needs (:meth:`deliver_packet`,
:meth:`drops`, :meth:`mutate_delivery`, :meth:`mutate_measurements`,
:meth:`maybe_fail`, :meth:`delay_s`).  No core module imports the chaos
package — passing ``None`` (the default everywhere) compiles the hooks
away entirely.

Determinism: each injection point owns an independent RNG stream derived
from ``(plan.seed, point)``, and every hook call consumes a fixed number
of draws per spec.  Replaying the same plan over the same pipeline
therefore fires the same faults in the same places, which is what makes
a chaos run a reproducible experiment (and lets the parity tests assert
byte-identical output under the zero-fault plan).
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.retry import TransientError


class ChaosError(TransientError):
    """A transient, injector-raised failure (retryable by policy)."""


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, for the experiment log."""

    point: str
    kind: str
    detail: str = ""


def _point_seed(seed: int, point: str) -> int:
    digest = hashlib.sha256(f"{seed}:{point}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class FaultInjector:
    """Applies a fault plan at the pipeline's injection points.

    Thread-safe: the fleet executor calls :meth:`delay_s` and
    :meth:`maybe_fail` from worker threads, so all RNG draws and event
    bookkeeping happen under one lock.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rngs: dict[str, np.random.Generator] = {}
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []
        self.counts: Counter[tuple[str, str]] = Counter()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _rng(self, point: str) -> np.random.Generator:
        rng = self._rngs.get(point)
        if rng is None:
            rng = np.random.default_rng(_point_seed(self.plan.seed, point))
            self._rngs[point] = rng
        return rng

    def _fired(self, point: str, kinds: tuple[str, ...]) -> list[FaultSpec]:
        """Specs at ``point`` (restricted to ``kinds``) that fire now."""
        specs = [s for s in self.plan.for_point(point) if s.kind in kinds]
        if not specs:
            return []
        with self._lock:
            rng = self._rng(point)
            fired = [s for s in specs if rng.random() < s.probability]
            for spec in fired:
                self.counts[(point, spec.kind)] += 1
        return fired

    def _record(self, point: str, kind: str, detail: str = "") -> None:
        with self._lock:
            self.events.append(FaultEvent(point, kind, detail))

    def fired_count(self, point: str, kind: str | None = None) -> int:
        """How many faults fired at a point (optionally one kind)."""
        with self._lock:
            if kind is not None:
                return self.counts[(point, kind)]
            return sum(n for (p, _), n in self.counts.items() if p == point)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    # ------------------------------------------------------------------
    # Packet-level hooks (flush.data / flush.nack).
    # ------------------------------------------------------------------
    def deliver_packet(self, point: str, packet) -> list:
        """What the receiver sees for one physically delivered packet.

        Returns zero (dropped), one (possibly corrupted/truncated) or
        several (duplicated) packets.
        """
        out = [packet]
        for spec in self._fired(point, ("drop", "corrupt", "truncate", "duplicate")):
            if spec.kind == "drop":
                out = []
            elif spec.kind == "corrupt":
                out = [self._corrupt_packet(point, p) for p in out]
            elif spec.kind == "truncate":
                out = [self._truncate_packet(p, spec) for p in out]
            elif spec.kind == "duplicate":
                out = out + [replace(p) for p in out]
            self._record(point, spec.kind, f"seq={getattr(packet, 'seq', '?')}")
        return out

    def _corrupt_packet(self, point: str, packet):
        payload = packet.payload
        if not payload:
            return packet
        with self._lock:
            idx = int(self._rng(point).integers(len(payload)))
        flipped = bytes(
            b ^ 0xFF if i == idx else b for i, b in enumerate(payload)
        )
        return replace(packet, payload=flipped)

    @staticmethod
    def _truncate_packet(packet, spec: FaultSpec):
        payload = packet.payload
        keep = int(len(payload) * (1.0 - min(spec.magnitude, 1.0)))
        return replace(packet, payload=payload[:keep])

    def drops(self, point: str) -> bool:
        """True when a ``drop`` fault fires at a control-message point."""
        fired = self._fired(point, ("drop",))
        if fired:
            self._record(point, "drop")
        return bool(fired)

    # ------------------------------------------------------------------
    # Gateway hook (gateway.convert).
    # ------------------------------------------------------------------
    def mutate_delivery(self, point: str, delivered):
        """Fault one delivered measurement before conversion.

        Returns ``None`` when the measurement is dropped, otherwise a
        (possibly structurally broken) replacement — a corrupted delivery
        has a flattened count block, which the gateway's shape validation
        rejects into the dead-letter queue.
        """
        for spec in self._fired(point, ("drop", "corrupt", "truncate")):
            self._record(
                point, spec.kind, f"measurement={getattr(delivered, 'measurement_id', '?')}"
            )
            if spec.kind == "drop":
                return None
            if spec.kind == "corrupt":
                delivered = replace(
                    delivered, counts=np.asarray(delivered.counts).reshape(-1)
                )
            elif spec.kind == "truncate":
                counts = np.asarray(delivered.counts)
                keep = max(1, int(counts.shape[0] * (1.0 - min(spec.magnitude, 1.0))))
                delivered = replace(delivered, counts=counts[:keep])
        return delivered

    # ------------------------------------------------------------------
    # Storage read hook (storage.read).
    # ------------------------------------------------------------------
    def mutate_measurements(self, point: str, records: list) -> list:
        """Fault a retrieved record batch: drop, duplicate, NaN-poison,
        or truncate individual records."""
        out = []
        for record in records:
            kept = [record]
            for spec in self._fired(point, ("drop", "corrupt", "truncate", "duplicate")):
                self._record(point, spec.kind, f"measurement={record.measurement_id}")
                if spec.kind == "drop":
                    kept = []
                elif spec.kind == "corrupt":
                    kept = [self._poison_record(point, r) for r in kept]
                elif spec.kind == "truncate":
                    kept = [self._truncate_record(r, spec) for r in kept]
                elif spec.kind == "duplicate":
                    kept = kept + list(kept)
            out.extend(kept)
        return out

    def _poison_record(self, point: str, record):
        samples = np.array(record.samples, dtype=np.float64)
        with self._lock:
            row = int(self._rng(point).integers(samples.shape[0]))
        samples[row, :] = np.nan
        return replace(record, samples=samples)

    @staticmethod
    def _truncate_record(record, spec: FaultSpec):
        samples = np.asarray(record.samples)
        keep = max(2, int(samples.shape[0] * (1.0 - min(spec.magnitude, 1.0))))
        return replace(record, samples=samples[:keep])

    # ------------------------------------------------------------------
    # Failure / stall hooks (storage.write, storage.read, fleet.task).
    # ------------------------------------------------------------------
    def maybe_fail(self, point: str) -> None:
        """Raise :class:`ChaosError` when an ``error`` fault fires."""
        if self._fired(point, ("error",)):
            self._record(point, "error")
            raise ChaosError(f"injected transient failure at {point}")

    def delay_s(self, point: str) -> float:
        """Seconds of injected stall at a point (0.0 when none fires)."""
        total = 0.0
        for spec in self._fired(point, ("delay",)):
            self._record(point, "delay", f"{spec.magnitude:.4f}s")
            total += spec.magnitude
        return total

    # ------------------------------------------------------------------
    # Worker-death hook (fleet.worker_kill).
    # ------------------------------------------------------------------
    def kills(self, point: str) -> bool:
        """True when a ``kill`` fault fires: the supervised fleet executor
        treats this as a worker death and restarts the current chunk."""
        fired = self._fired(point, ("kill",))
        if fired:
            self._record(point, "kill")
        return bool(fired)

    # ------------------------------------------------------------------
    # At-rest corruption hooks (storage.blob_corrupt).
    # ------------------------------------------------------------------
    def corrupts(self, point: str) -> bool:
        """True when a ``corrupt`` fault fires against a stored BLOB."""
        fired = self._fired(point, ("corrupt",))
        if fired:
            self._record(point, "corrupt")
        return bool(fired)

    def corrupt_index(self, point: str, n: int) -> int:
        """Deterministic byte offset to damage within an ``n``-byte BLOB."""
        with self._lock:
            return int(self._rng(point).integers(max(1, n)))
