"""Batched, instrumented execution layer for the analysis workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` pushes the whole
measurement matrix through transform → preprocess → features → RUL on
the pieces this package provides:

* :mod:`repro.runtime.batch` — the tiled 2-D DCT transform, spread over
  threads, bit-identical to the scalar oracle in ``tests/reference/``;
* :class:`~repro.runtime.checkpoint.RowJournal` — the row memo on disk,
  behind ``repro analyze --checkpoint/--resume``;
* :class:`~repro.runtime.fleet.FleetExecutor` — per-pump RUL and
  diagnosis chains run in line, in submission order, with optional
  chaos supervision;
* :mod:`repro.runtime.cache` — the row digests that key the pipeline's
  one row memo (transform outputs and harmonic peaks per row, so a
  rolling refresh transforms and extracts only its new rows), and the
  lifetime-model fit memo the backtest shares;
* :class:`~repro.runtime.profile.RuntimeProfile` — per-stage wall-clock
  timers and counters behind the ``repro analyze --profile`` flag, the
  measurement surface for future benchmark entries.
"""

from repro.runtime.cache import ModelFitCache, default_model_fit_cache
from repro.runtime.checkpoint import RowJournal
from repro.runtime.fleet import (
    ABANDONED,
    FleetExecutor,
    SupervisionExhaustedError,
    SupervisionPolicy,
    SupervisionReport,
)
from repro.runtime.profile import RuntimeProfile, StageStats

__all__ = [
    "ABANDONED",
    "FleetExecutor",
    "ModelFitCache",
    "RowJournal",
    "RuntimeProfile",
    "StageStats",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "SupervisionReport",
    "default_model_fit_cache",
]
