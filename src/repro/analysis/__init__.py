"""End-to-end analytics: engine orchestration, metrics and cost model."""

from repro.analysis.metrics import ClassificationReport, confusion_matrix, evaluate_labels
from repro.analysis.cost import CostModel, CostSummary, ReplacementOutcome
from repro.analysis.engine import AnalysisReport, EngineConfig, VibrationAnalysisEngine
from repro.analysis.reporting import (
    Alert,
    build_alerts,
    fleet_health_summary,
    render_report,
)
from repro.analysis.scheduling import (
    MaintenancePlan,
    MaintenanceScheduler,
    ScheduledReplacement,
)
from repro.analysis.online import OnlinePumpTracker, TrackerUpdate
from repro.analysis.backtest import BacktestPoint, BacktestResult, backtest_rul

__all__ = [
    "confusion_matrix",
    "evaluate_labels",
    "ClassificationReport",
    "CostModel",
    "CostSummary",
    "ReplacementOutcome",
    "VibrationAnalysisEngine",
    "EngineConfig",
    "AnalysisReport",
    "Alert",
    "build_alerts",
    "fleet_health_summary",
    "render_report",
    "MaintenanceScheduler",
    "MaintenancePlan",
    "ScheduledReplacement",
    "OnlinePumpTracker",
    "TrackerUpdate",
    "backtest_rul",
    "BacktestResult",
    "BacktestPoint",
]
