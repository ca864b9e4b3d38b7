"""Batched, instrumented execution layer for the analysis workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` pushes the whole
measurement matrix through transform → preprocess → features → RUL on
the pieces this package provides:

* :mod:`repro.runtime.batch` — the tiled 2-D DCT transform with optional
  chunk journaling and process fan-out, bit-identical to the scalar
  oracle in ``tests/reference/``;
* :class:`~repro.runtime.fleet.FleetExecutor` — per-pump RUL and
  diagnosis chains fanned across worker threads or processes with
  chunked scheduling and deterministic result ordering (the process
  backend ships large matrices through shared memory, see
  :mod:`repro.runtime.shm`);
* :mod:`repro.runtime.cache` — the row digests that key the pipeline's
  one row memo (transform outputs and harmonic peaks per row, so a
  rolling refresh transforms and extracts only its new rows), and the
  lifetime-model fit memo the backtest shares;
* :class:`~repro.runtime.profile.RuntimeProfile` — per-stage wall-clock
  timers and counters behind the ``repro analyze --profile`` flag, the
  measurement surface for future benchmark entries.
"""

from repro.runtime.cache import ModelFitCache, default_model_fit_cache
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.fleet import (
    ABANDONED,
    FleetExecutor,
    SupervisionExhaustedError,
    SupervisionPolicy,
    SupervisionReport,
    WorkerKilledError,
)
from repro.runtime.profile import RuntimeProfile, StageStats
from repro.runtime.shm import SharedArray, SharedArraySpec, attached_view

__all__ = [
    "ABANDONED",
    "CheckpointManager",
    "FleetExecutor",
    "ModelFitCache",
    "RuntimeProfile",
    "SharedArray",
    "SharedArraySpec",
    "StageStats",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "SupervisionReport",
    "WorkerKilledError",
    "attached_view",
    "default_model_fit_cache",
]
