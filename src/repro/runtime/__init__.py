"""Batched, instrumented execution layer for the analysis workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` pushes the whole
measurement matrix through transform → preprocess → features → RUL on
the pieces this package provides:

* :mod:`repro.runtime.batch` — the vectorized kernels (tiled 2-D DCT
  transform with optional chunk journaling and process fan-out, one-shot
  Hann smoothing, vectorized local-maxima scan in
  :class:`~repro.runtime.batch.BatchPeakHarmonicFeature`), bit-identical
  to the scalar oracle in ``tests/reference/``;
* :class:`~repro.runtime.fleet.FleetExecutor` — per-pump RUL and
  diagnosis chains fanned across worker threads or processes with
  chunked scheduling and deterministic result ordering (the process
  backend ships large matrices through shared memory, see
  :mod:`repro.runtime.shm`);
* :class:`~repro.runtime.cache.PeakFeatureCache` — memoized exemplar
  peaks / per-row peak features / peak distances keyed by config hash
  and data digest, so repeated scoring of the same rows (classifier
  training + full-fleet scoring, repeated engine runs) is paid once;
* :class:`~repro.runtime.profile.RuntimeProfile` — per-stage wall-clock
  timers and counters behind the ``repro analyze --profile`` flag, the
  measurement surface for future benchmark entries.
"""

from repro.runtime.batch import BatchPeakHarmonicFeature
from repro.runtime.cache import (
    ModelFitCache,
    PeakFeatureCache,
    default_model_fit_cache,
    default_peak_cache,
)
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
    "BatchPeakHarmonicFeature",
    "CheckpointManager",
    "FleetExecutor",
    "ModelFitCache",
    "PeakFeatureCache",
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
    "default_peak_cache",
]
