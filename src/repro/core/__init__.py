"""Core analytical algorithms from the paper.

This subpackage implements the paper's primary contribution: the feature
pipeline (normalization, RMS, DCT-based power spectral density), harmonic
peak extraction, the peak harmonic distance (Algorithm 1), zone
classification, and the recursive-RANSAC Remaining-Useful-Lifetime model.

All functions here are pure numpy/scipy computations over arrays, except
that :class:`AnalysisPipeline` runs them through the batched kernels and
fleet executor of :mod:`repro.runtime`; the storage, simulation and
orchestration layers live in sibling subpackages.
"""

from repro.core.features import (
    FeatureConfig,
    normalize_measurement,
    psd_feature,
    psd_frequencies,
    rms_feature,
)
from repro.core.window import hann_window, moving_average, smooth_hann
from repro.core.peaks import HarmonicPeaks, extract_harmonic_peaks
from repro.core.distance import (
    euclidean_distance,
    mahalanobis_distance,
    peak_harmonic_distance,
)
from repro.core.kde import GaussianKDE1D, min_error_threshold
from repro.core.meanshift import MeanShift, MeanShiftResult
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.classify import (
    ZONE_A,
    ZONE_BC,
    ZONE_D,
    ZONES,
    OrderedThresholdClassifier,
    ZoneClassifier,
)
from repro.core.ransac import (
    LineModel,
    RANSACLineFitter,
    RecursiveRANSAC,
    draw_trial_pairs,
    fit_line_least_squares,
)
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.pipeline import AnalysisPipeline, PipelineConfig, PipelineResult
from repro.core.spectral import ConditionIndicators, condition_indicators
from repro.core.forecast import (
    ARForecaster,
    CrossingForecast,
    HoltLinearForecaster,
    crossing_forecast,
)
from repro.core.diagnosis import Diagnosis, SpectralDiagnoser
from repro.core.severity import SeverityAssessment, assess_severity, velocity_rms_mm_s

__all__ = [
    "FeatureConfig",
    "normalize_measurement",
    "rms_feature",
    "psd_feature",
    "psd_frequencies",
    "hann_window",
    "smooth_hann",
    "moving_average",
    "HarmonicPeaks",
    "extract_harmonic_peaks",
    "peak_harmonic_distance",
    "euclidean_distance",
    "mahalanobis_distance",
    "GaussianKDE1D",
    "min_error_threshold",
    "MeanShift",
    "MeanShiftResult",
    "OutlierConfig",
    "detect_invalid_measurements",
    "ZONE_A",
    "ZONE_BC",
    "ZONE_D",
    "ZONES",
    "OrderedThresholdClassifier",
    "ZoneClassifier",
    "LineModel",
    "fit_line_least_squares",
    "RANSACLineFitter",
    "RecursiveRANSAC",
    "learn_zone_d_threshold",
    "RULEstimator",
    "RULPrediction",
    "AnalysisPipeline",
    "PipelineConfig",
    "PipelineResult",
    "ConditionIndicators",
    "condition_indicators",
    "HoltLinearForecaster",
    "ARForecaster",
    "CrossingForecast",
    "crossing_forecast",
    "draw_trial_pairs",
    "Diagnosis",
    "SpectralDiagnoser",
    "SeverityAssessment",
    "assess_severity",
    "velocity_rms_mm_s",
]
