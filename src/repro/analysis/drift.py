"""Model drift monitoring: when to retrain the zone thresholds.

The paper's engine refreshes its analysis periodically, but its learned
artifacts (the Zone A exemplar, the D_a thresholds, the lifetime models)
implicitly assume the *feature distribution* stays the one they were
trained on.  Sensor replacements, firmware changes, and new equipment
models all shift it — silently degrading classification until someone
notices bad predictions.

This module watches for that: it compares the recent D_a distribution
against a stored training-time reference with a two-sample
Kolmogorov–Smirnov test and a population-stability index (PSI), the two
standard drift alarms, and recommends retraining when either trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of one drift evaluation.

    Attributes:
        ks_statistic: two-sample KS distance in [0, 1].
        ks_pvalue: p-value of the KS test.
        psi: population stability index (0 stable; >0.25 major shift by
            the usual rule of thumb).
        drifted: the combined recommendation to retrain.
    """

    ks_statistic: float
    ks_pvalue: float
    psi: float
    drifted: bool


def population_stability_index(
    reference: np.ndarray,
    current: np.ndarray,
    bins: int = 10,
) -> float:
    """PSI between a reference and a current sample.

    Bins are deciles of the *reference* distribution; empty proportions
    are floored to avoid infinities (the standard practice).

    Args:
        reference: training-time feature sample.
        current: recent feature sample.
        bins: number of quantile bins.

    Returns:
        Non-negative PSI; ~0 identical, >0.25 conventionally "major".
    """
    ref = np.asarray(reference, dtype=np.float64).ravel()
    cur = np.asarray(current, dtype=np.float64).ravel()
    if ref.size < bins or cur.size < 1:
        raise ValueError("need at least `bins` reference and 1 current samples")
    edges = np.quantile(ref, np.linspace(0, 1, bins + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    # Collapse duplicate edges (heavy ties in the reference).
    edges = np.unique(edges)
    ref_counts, _ = np.histogram(ref, bins=edges)
    cur_counts, _ = np.histogram(cur, bins=edges)
    ref_prop = np.maximum(ref_counts / ref.size, 1e-4)
    cur_prop = np.maximum(cur_counts / cur.size, 1e-4)
    return float(((cur_prop - ref_prop) * np.log(cur_prop / ref_prop)).sum())


class DriftMonitor:
    """Stores the training-time reference and evaluates recent windows."""

    def __init__(
        self,
        reference: np.ndarray,
        ks_alpha: float = 0.01,
        psi_threshold: float = 0.25,
        min_window: int = 30,
    ):
        """Create a monitor.

        Args:
            reference: feature values (e.g. ``D_a``) observed when the
                current models were trained.
            ks_alpha: KS-test significance level for the drift alarm.
            psi_threshold: PSI above which drift is declared.
            min_window: smallest recent-window size the monitor will
                evaluate (tiny windows make both tests meaningless).
        """
        ref = np.asarray(reference, dtype=np.float64).ravel()
        ref = ref[np.isfinite(ref)]
        if ref.size < 10:
            raise ValueError("need at least 10 finite reference samples")
        if not 0 < ks_alpha < 1:
            raise ValueError("ks_alpha must be in (0, 1)")
        if psi_threshold <= 0:
            raise ValueError("psi_threshold must be positive")
        if min_window < 2:
            raise ValueError("min_window must be at least 2")
        self.reference = ref
        self.ks_alpha = ks_alpha
        self.psi_threshold = psi_threshold
        self.min_window = min_window

    def evaluate(self, recent: np.ndarray) -> DriftVerdict:
        """Evaluate a recent feature window against the reference.

        Raises:
            ValueError: when the window is too small after dropping
                non-finite values.
        """
        from scipy.stats import ks_2samp  # lazy: not on the analyze path

        window = np.asarray(recent, dtype=np.float64).ravel()
        window = window[np.isfinite(window)]
        if window.size < self.min_window:
            raise ValueError(
                f"need at least {self.min_window} finite samples, got {window.size}"
            )
        ks = ks_2samp(self.reference, window)
        psi = population_stability_index(self.reference, window)
        drifted = bool(ks.pvalue < self.ks_alpha and psi > self.psi_threshold)
        return DriftVerdict(
            ks_statistic=float(ks.statistic),
            ks_pvalue=float(ks.pvalue),
            psi=psi,
            drifted=drifted,
        )
