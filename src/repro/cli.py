"""Command-line interface.

Four subcommands cover the operational loop a deployment runs:

* ``repro simulate`` — generate a synthetic fleet into a SQLite database
  (stand-in for a live sensor network feeding the sensor DB);
* ``repro analyze`` — run the full analysis engine over an analysis
  period of that database and print the operator report;
* ``repro plan`` — the Fig. 5 deployment planner: report-period lower
  bounds and measurement budgets for a target node lifetime;
* ``repro specs`` — print the Table I sensor comparison.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _add_simulate_parser(subparsers) -> None:
    p = subparsers.add_parser("simulate", help="simulate a fleet into a SQLite DB")
    p.add_argument("--db", required=True, help="output SQLite database path")
    p.add_argument("--pumps", type=int, default=12, help="fleet size")
    p.add_argument("--days", type=float, default=90.0, help="simulated duration")
    p.add_argument(
        "--interval", type=float, default=0.125, help="report interval in days"
    )
    p.add_argument(
        "--pm-interval",
        type=float,
        default=None,
        help="planned-maintenance age in days (omit to run pumps to failure)",
    )
    p.add_argument(
        "--unstable-fraction",
        type=float,
        default=0.0,
        help="fraction of sensors with offset drift/jumps",
    )
    p.add_argument(
        "--labels",
        default="60,60,40",
        help="expert label counts as A,BC,D (default 60,60,40)",
    )
    p.add_argument("--seed", type=int, default=7)


def _add_analyze_parser(subparsers) -> None:
    p = subparsers.add_parser("analyze", help="analyze a database and print the report")
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument("--start", type=float, default=0.0, help="analysis period start day")
    p.add_argument("--end", type=float, default=1e9, help="analysis period end day")
    p.add_argument(
        "--moving-average", type=int, default=8, help="D_a moving-average window"
    )
    p.add_argument(
        "--horizon", type=float, default=30.0, help="alert horizon in days"
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="append a per-stage wall-clock runtime profile to the report",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fleet-executor worker count (default auto; 0/1 forces serial)",
    )
    p.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help=(
            "fleet-executor backend; 'process' sidesteps the GIL for"
            " file-backed databases (in-memory DBs fall back to threads)"
        ),
    )
    p.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "arm fleet supervision: per-chunk deadlines, worker restart"
            " with backoff, partial-result salvage (see docs/RELIABILITY.md)"
        ),
    )
    p.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help=(
            "journal transform chunks into DIR so an interrupted run can"
            " be resumed bit-identically with --resume DIR"
        ),
    )
    p.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help=(
            "resume from a checkpoint manifest written by --checkpoint;"
            " a missing or stale manifest falls back to a fresh run"
            " (and re-journals into DIR)"
        ),
    )


def _add_plan_parser(subparsers) -> None:
    p = subparsers.add_parser("plan", help="Fig. 5 deployment planning numbers")
    p.add_argument(
        "--sampling-hz",
        type=float,
        nargs="+",
        default=[150.0, 1000.0, 4000.0, 22000.0],
        help="sampling frequencies to evaluate",
    )
    p.add_argument(
        "--target-years",
        type=float,
        nargs="+",
        default=[1.0, 2.0, 3.0, 4.0],
        help="target node lifetimes",
    )


def _add_compact_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "compact", help="aggregate old raw measurements into daily summaries"
    )
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument(
        "--keep-days", type=float, required=True, help="raw retention window in days"
    )
    p.add_argument(
        "--now", type=float, required=True, help="current time in deployment days"
    )


def _add_schedule_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "schedule", help="plan replacements from the database's RUL predictions"
    )
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument("--period-days", type=float, default=7.0, help="planning period")
    p.add_argument(
        "--capacity", type=int, default=2, help="replacements per period"
    )
    p.add_argument(
        "--margin-days", type=float, default=14.0, help="safety margin before failure"
    )
    p.add_argument(
        "--horizon", type=int, default=26, help="planning horizon in periods"
    )
    p.add_argument(
        "--moving-average", type=int, default=8, help="D_a moving-average window"
    )


def _add_dashboard_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "dashboard", help="render the HTML fleet dashboard from a database"
    )
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument("--out", required=True, help="output HTML path")
    p.add_argument(
        "--moving-average", type=int, default=8, help="D_a moving-average window"
    )
    p.add_argument("--title", default="Fleet dashboard")


def _add_export_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "export", help="export measurements to a portable NPZ corpus"
    )
    p.add_argument("--db", required=True, help="SQLite database path")
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=1e9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vibration analysis for IoT-enabled predictive maintenance",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate_parser(subparsers)
    _add_analyze_parser(subparsers)
    _add_plan_parser(subparsers)
    _add_compact_parser(subparsers)
    _add_schedule_parser(subparsers)
    _add_dashboard_parser(subparsers)
    _add_export_parser(subparsers)
    subparsers.add_parser("specs", help="print the Table I sensor comparison")
    return parser


def _cmd_simulate(args, out) -> int:
    from repro.simulation import FleetConfig, FleetSimulator
    from repro.storage.database import VibrationDatabase

    try:
        counts = [int(c) for c in args.labels.split(",")]
        if len(counts) != 3:
            raise ValueError
    except ValueError:
        print("error: --labels must be three integers A,BC,D", file=out)
        return 2

    config = FleetConfig(
        num_pumps=args.pumps,
        duration_days=args.days,
        report_interval_days=args.interval,
        pm_interval_days=args.pm_interval,
        unstable_sensor_fraction=args.unstable_fraction,
        max_initial_age_fraction=0.9,
        seed=args.seed,
    )
    dataset = FleetSimulator(config).run()
    # Draw the labels before opening the database, so an infeasible mix
    # leaves no labelless file behind.
    try:
        records, _ = dataset.expert_labels(dict(zip(("A", "BC", "D"), counts)))
    except ValueError as exc:
        print(f"error: cannot satisfy label mix: {exc}", file=out)
        return 2
    with VibrationDatabase(args.db) as db:
        dataset.to_database(db)
        db.labels.add_many(records)
        print(
            f"wrote {db.measurements.count()} measurements, "
            f"{db.labels.count()} labels, {len(dataset.events)} events "
            f"to {args.db}",
            file=out,
        )
    return 0


def _missing_database(path: str, out) -> bool:
    """Report a missing ``--db`` file.

    Only ``simulate`` creates databases; every other subcommand refuses a
    path that does not exist rather than letting SQLite create an empty
    database there.
    """
    if os.path.exists(path):
        return False
    print(f"error: no database at {path}", file=out)
    return True


def _cmd_analyze(args, out) -> int:
    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.analysis.reporting import render_report
    from repro.core.pipeline import PipelineConfig
    from repro.runtime import RuntimeProfile, SupervisionPolicy
    from repro.runtime.checkpoint import MANIFEST_NAME
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase

    checkpoint_dir = args.resume or args.checkpoint
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        print("error: --resume and --checkpoint name different directories", file=out)
        return 2
    if args.resume is not None:
        manifest = os.path.join(args.resume, MANIFEST_NAME)
        if not os.path.exists(manifest):
            # Diagnostics go to stderr: the report on stdout must stay
            # byte-identical to a plain run (CI diffs it).
            print(
                f"note: no checkpoint manifest at {manifest}; "
                "running fresh (and journaling a new checkpoint)",
                file=sys.stderr,
            )
    try:
        period = AnalysisPeriod(args.start, args.end)
        if args.horizon <= 0:
            raise ValueError("horizon_days must be positive")
        config = EngineConfig(
            pipeline=PipelineConfig(moving_average_window=args.moving_average),
            max_workers=args.workers,
            executor_backend=args.backend,
            supervision=SupervisionPolicy() if args.supervise else None,
            checkpoint_dir=checkpoint_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 1
    if _missing_database(args.db, out):
        return 1

    with VibrationDatabase(args.db) as db:
        engine = VibrationAnalysisEngine(DataRetrievalAPI(db, period), config)
        profile = RuntimeProfile() if args.profile else None
        try:
            report = engine.run(profile=profile)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 1
        print(render_report(report, horizon_days=args.horizon), file=out)
        if profile is not None:
            print(profile.report(), file=out)
    return 0


def _cmd_plan(args, out) -> int:
    from repro.sensornet.energy import EnergyModel

    model = EnergyModel()
    print(
        f"{'fs (Hz)':>9}  {'target (yr)':>11}  {'min period (h)':>14}  "
        f"{'measurements':>12}",
        file=out,
    )
    for fs in args.sampling_hz:
        for years in args.target_years:
            bound_s = model.report_period_lower_bound_s(fs, years)
            budget = model.measurements_in_lifetime(fs, years)
            bound_text = (
                f"{bound_s / 3600:.2f}" if np.isfinite(bound_s) else "infeasible"
            )
            print(
                f"{fs:>9.0f}  {years:>11.1f}  {bound_text:>14}  {budget:>12,.0f}",
                file=out,
            )
    return 0


def _cmd_specs(out) -> int:
    from repro.simulation.mems import SENSOR_SPECS

    piezo, mems = SENSOR_SPECS["piezo"], SENSOR_SPECS["mems"]
    rows = [
        ("Price (US$)", piezo.price_usd, mems.price_usd),
        ("Power (mW)", piezo.power_mw, mems.power_mw),
        ("Noise density (ug/rtHz)", piezo.noise_density_ug_per_rthz,
         mems.noise_density_ug_per_rthz),
        ("Resonance freq (kHz)", piezo.resonance_khz, mems.resonance_khz),
        ("Accel range (g)", piezo.accel_range_g, mems.accel_range_g),
    ]
    print(f"{'feature':<26} {'Piezo':>10} {'MEMS':>10}", file=out)
    for name, a, b in rows:
        print(f"{name:<26} {a:>10} {b:>10}", file=out)
    return 0


def _cmd_compact(args, out) -> int:
    from repro.storage.aggregate import RetentionManager
    from repro.storage.database import VibrationDatabase

    if _missing_database(args.db, out):
        return 1
    with VibrationDatabase(args.db) as db:
        manager = RetentionManager(db)
        try:
            outcome = manager.compact(args.keep_days, args.now)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(
            f"compacted: {outcome['summaries_written']} pump-day summaries "
            f"written, {outcome['raw_deleted']} raw measurements deleted, "
            f"{db.measurements.count()} raw measurements remain",
            file=out,
        )
    return 0


def _cmd_schedule(args, out) -> int:
    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.analysis.scheduling import MaintenanceScheduler
    from repro.core.pipeline import PipelineConfig
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase

    try:
        scheduler = MaintenanceScheduler(
            period_days=args.period_days,
            capacity_per_period=args.capacity,
            safety_margin_days=args.margin_days,
        )
        if args.horizon < 1:
            raise ValueError("horizon_periods must be positive")
        config = EngineConfig(
            pipeline=PipelineConfig(moving_average_window=args.moving_average)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 1
    if _missing_database(args.db, out):
        return 1
    with VibrationDatabase(args.db) as db:
        api = DataRetrievalAPI(db, AnalysisPeriod(0.0, 1e9))
        try:
            report = VibrationAnalysisEngine(api, config).run()
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 1
        plan = scheduler.plan(report.rul, horizon_periods=args.horizon)
        if not plan.replacements:
            print("no replacements due within the horizon", file=out)
            return 0
        for period, items in sorted(plan.by_period().items()):
            pumps = ", ".join(
                f"pump {s.pump_id} (RUL {s.predicted_rul_days:.0f} d)" for s in items
            )
            print(f"period {period}: {pumps}", file=out)
        print(
            f"expected wasted RUL: {plan.expected_wasted_days:.0f} days "
            f"(${plan.expected_wasted_usd:,.0f})",
            file=out,
        )
    return 0


def _cmd_dashboard(args, out) -> int:
    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.core.pipeline import PipelineConfig
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase
    from repro.viz.dashboard import write_dashboard

    if _missing_database(args.db, out):
        return 1
    with VibrationDatabase(args.db) as db:
        api = DataRetrievalAPI(db, AnalysisPeriod(0.0, 1e9))
        try:
            engine = VibrationAnalysisEngine(
                api,
                EngineConfig(
                    pipeline=PipelineConfig(moving_average_window=args.moving_average)
                ),
            )
            report = engine.run()
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 1
        path = write_dashboard(report, args.out, title=args.title)
        print(f"dashboard written to {path}", file=out)
    return 0


def _cmd_export(args, out) -> int:
    from repro.storage.database import VibrationDatabase
    from repro.storage.traces import export_npz

    if _missing_database(args.db, out):
        return 1
    with VibrationDatabase(args.db) as db:
        records = db.measurements.query(args.start, args.end)
        if not records:
            print("error: no measurements in the requested range", file=out)
            return 1
        path = export_npz(records, args.out)
        print(f"exported {len(records)} measurements to {path}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args, out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "plan":
        return _cmd_plan(args, out)
    if args.command == "compact":
        return _cmd_compact(args, out)
    if args.command == "schedule":
        return _cmd_schedule(args, out)
    if args.command == "dashboard":
        return _cmd_dashboard(args, out)
    if args.command == "export":
        return _cmd_export(args, out)
    if args.command == "specs":
        return _cmd_specs(out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
