"""Batched, instrumented execution layer for the analysis workflow.

The scalar :class:`~repro.core.pipeline.AnalysisPipeline` pushes one
measurement at a time through transform → preprocess → features →
RUL; correct, but every stage pays per-measurement Python and FFT-call
overhead.  This package is the production runtime on top of the same
analytical code:

* :class:`~repro.runtime.batch.BatchPipeline` — the whole measurement
  matrix through vectorized kernels (single 2-D DCT, one-shot Hann
  smoothing, vectorized local-maxima scan), bit-identical to the scalar
  reference (the parity tests enforce it); a row memo keyed by content
  digest makes a rolling-window refresh transform only its new rows;
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

from repro.runtime.batch import BatchPeakHarmonicFeature, BatchPipeline
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
    "BatchPipeline",
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
