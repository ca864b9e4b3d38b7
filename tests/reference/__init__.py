"""Scalar oracles of the production kernels.

Each module here keeps the straightforward per-row / per-trial / per-day
loop that a batched production path in ``src/repro`` must reproduce bit
for bit (DESIGN.md, "The bit-identity contract").  They are test
references only: nothing in the package imports them.

* :mod:`tests.reference.pipeline` — the per-row transform and the scalar
  Fig. 7 pipeline (scalar ``PeakHarmonicFeature``, serial RUL loop);
* :mod:`tests.reference.engine` — :class:`ReferenceEngine`, the analysis
  engine running that pipeline, for report-level parity;
* :mod:`tests.reference.ransac` — the per-trial RANSAC loop and a
  recursive engine built on it;
* :mod:`tests.reference.backtest` — the per-day walk-forward rescan.
"""

from tests.reference.backtest import backtest_rul_reference
from tests.reference.engine import ReferenceEngine
from tests.reference.pipeline import ReferencePipeline, transform_reference
from tests.reference.ransac import ReferenceRecursiveRANSAC, fit_reference

__all__ = [
    "ReferenceEngine",
    "ReferencePipeline",
    "ReferenceRecursiveRANSAC",
    "backtest_rul_reference",
    "fit_reference",
    "transform_reference",
]
