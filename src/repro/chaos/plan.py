"""Deterministic fault plans: *what* can go wrong, *where*, *how often*.

A :class:`FaultPlan` is a pure-data description of a chaos experiment: a
set of :class:`FaultSpec` entries, each binding a fault *kind* (drop,
corrupt, truncate, duplicate, delay, error) to a named *injection point*
in the pipeline, with a per-event probability and a kind-specific
magnitude.  Plans carry their own seed, so the same plan replayed over
the same pipeline produces the same faults — chaos runs are experiments,
not dice rolls.

Injection points (see :mod:`repro.chaos.inject` for the hook contract):

=======================  ===============================================
``flush.data``           data-packet delivery inside a Flush transfer
``flush.nack``           NACK control messages (base station → mote)
``gateway.convert``      count-block → Measurement conversion at the gateway
``storage.write``        gateway batch insert into the sensor database
``storage.read``         analysis-period retrieval in the data API
``storage.blob_corrupt`` at-rest bit rot of stored measurement BLOBs
``fleet.task``           per-pump work items inside the fleet executor
``fleet.worker_kill``    death of the worker running a fleet chunk
``fleet.worker_hang``    stall of the worker running a fleet chunk
=======================  ===============================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Fault kinds a spec may request.  Not every kind is meaningful at every
#: point (e.g. ``delay`` at ``flush.data`` is a no-op); injectors apply
#: only the kinds their point supports.  ``kill`` is the worker-death
#: kind: only the supervised fleet executor observes it.
FAULT_KINDS = ("drop", "corrupt", "truncate", "duplicate", "delay", "error", "kill")

# Canonical injection point names.  Core modules reference these as plain
# strings so they never need to import the chaos package.
FLUSH_DATA = "flush.data"
FLUSH_NACK = "flush.nack"
GATEWAY_CONVERT = "gateway.convert"
STORAGE_WRITE = "storage.write"
STORAGE_READ = "storage.read"
STORAGE_BLOB_CORRUPT = "storage.blob_corrupt"
FLEET_TASK = "fleet.task"
FLEET_WORKER_KILL = "fleet.worker_kill"
FLEET_WORKER_HANG = "fleet.worker_hang"

INJECTION_POINTS = (
    FLUSH_DATA,
    FLUSH_NACK,
    GATEWAY_CONVERT,
    STORAGE_WRITE,
    STORAGE_READ,
    STORAGE_BLOB_CORRUPT,
    FLEET_TASK,
    FLEET_WORKER_KILL,
    FLEET_WORKER_HANG,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault channel of a plan.

    Attributes:
        point: injection point name (one of :data:`INJECTION_POINTS`).
        kind: fault kind (one of :data:`FAULT_KINDS`).
        probability: per-event firing probability in ``[0, 1]``.
        magnitude: kind-specific size — fraction of bytes/rows removed
            for ``truncate``, seconds for ``delay``; ignored by ``drop``,
            ``duplicate`` and ``error``.
    """

    point: str
    kind: str
    probability: float
    magnitude: float = 0.5

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {self.point!r}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs.

    Attributes:
        name: human-readable experiment name.
        seed: master seed; every injection point derives its own RNG
            stream from ``(seed, point)``, so adding a spec at one point
            never perturbs the fault sequence at another.
        specs: the fault channels.
    """

    name: str
    seed: int
    specs: tuple[FaultSpec, ...] = ()

    def for_point(self, point: str) -> tuple[FaultSpec, ...]:
        """Specs bound to one injection point, in declaration order."""
        return tuple(s for s in self.specs if s.point == point)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same experiment under a different master seed."""
        return replace(self, seed=int(seed))

    @property
    def points(self) -> tuple[str, ...]:
        """Injection points this plan touches, in declaration order."""
        seen: list[str] = []
        for spec in self.specs:
            if spec.point not in seen:
                seen.append(spec.point)
        return tuple(seen)


ZERO_FAULTS = FaultPlan("zero-faults", seed=0, specs=())
"""The control experiment: full chaos machinery, no faults fired."""


def _plan(name: str, *specs: tuple) -> FaultPlan:
    return FaultPlan(name, seed=0, specs=tuple(FaultSpec(*s) for s in specs))


BUILTIN_PLANS: dict[str, FaultPlan] = {
    "zero-faults": ZERO_FAULTS,
    # Heavy but recoverable packet loss: Flush's NACK recovery plus the
    # transfer retry policy should still deliver every measurement.
    "packet-storm": _plan(
        "packet-storm",
        (FLUSH_DATA, "drop", 0.35),
        (FLUSH_NACK, "drop", 0.5),
    ),
    # A near-dead radio: transfers exhaust their round and retry budgets,
    # the circuit breaker opens, and dead letters record the losses.
    "mote-blackout": _plan(
        "mote-blackout",
        (FLUSH_DATA, "drop", 0.97),
    ),
    # Silent payload damage: bit flips survive transport (garbage data),
    # length truncation breaks reassembly (dead-lettered).
    "bit-rot": _plan(
        "bit-rot",
        (FLUSH_DATA, "corrupt", 0.02),
        (FLUSH_DATA, "truncate", 0.01, 0.5),
        (FLUSH_DATA, "duplicate", 0.05),
    ),
    # Gateway-side trouble: conversions fail or vanish, and the database
    # write path throws transient errors the retry policy must absorb.
    "gateway-flap": _plan(
        "gateway-flap",
        (GATEWAY_CONVERT, "drop", 0.08),
        (GATEWAY_CONVERT, "corrupt", 0.05),
        (GATEWAY_CONVERT, "truncate", 0.05, 0.5),
        (STORAGE_WRITE, "error", 0.4),
    ),
    # Retrieval-side trouble: transient read errors (retried), NaN-
    # poisoned rows (quarantined by the engine), duplicated / truncated /
    # vanished records (absorbed by the preprocessing layer).
    "flaky-storage": _plan(
        "flaky-storage",
        (STORAGE_READ, "error", 0.45),
        (STORAGE_READ, "corrupt", 0.08),
        (STORAGE_READ, "duplicate", 0.05),
        (STORAGE_READ, "truncate", 0.05, 0.5),
        (STORAGE_READ, "drop", 0.05),
    ),
    # Slow, flaky workers inside the analysis fan-out: results must stay
    # deterministic and ordered despite stalls and transient task errors.
    "stalled-fleet": _plan(
        "stalled-fleet",
        (FLEET_TASK, "delay", 0.3, 0.002),
        (FLEET_TASK, "error", 0.2),
    ),
    # Chunks die and stall in the analysis fan-out: the supervised fleet
    # executor must restart them with backoff and still produce ordered,
    # bit-identical results.  Hangs are short so the sweep stays fast.
    "worker-carnage": _plan(
        "worker-carnage",
        (FLEET_WORKER_KILL, "kill", 0.25),
        (FLEET_WORKER_HANG, "delay", 0.2, 0.02),
    ),
    # At-rest bit rot: stored BLOBs flip bytes after ingest.  Checksum
    # verification must quarantine the damaged rows to the dead-letter
    # table instead of poisoning downstream PSD/RUL results.
    "bit-rot-at-rest": _plan(
        "bit-rot-at-rest",
        (STORAGE_BLOB_CORRUPT, "corrupt", 0.08),
    ),
    # The ISSUE 4 acceptance scenario: worker kills plus stored-BLOB
    # corruption.  The run must complete, restart workers, quarantine
    # corrupt rows, and keep surviving outputs bit-identical.
    "crash-recovery": _plan(
        "crash-recovery",
        (FLEET_WORKER_KILL, "kill", 0.2),
        (STORAGE_BLOB_CORRUPT, "corrupt", 0.05),
    ),
    # Everything at once, mildly: the whole stack degrades gracefully.
    "kitchen-sink": _plan(
        "kitchen-sink",
        (FLUSH_DATA, "drop", 0.15),
        (FLUSH_DATA, "corrupt", 0.01),
        (FLUSH_NACK, "drop", 0.2),
        (GATEWAY_CONVERT, "drop", 0.03),
        (GATEWAY_CONVERT, "corrupt", 0.02),
        (STORAGE_WRITE, "error", 0.2),
        (STORAGE_READ, "error", 0.2),
        (STORAGE_READ, "corrupt", 0.04),
        (FLEET_TASK, "delay", 0.2, 0.001),
        (FLEET_TASK, "error", 0.1),
    ),
}
"""Named chaos experiments the test suite runs end to end."""
