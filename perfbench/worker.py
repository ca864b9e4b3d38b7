"""Child-process side of the benchmark: one fresh interpreter per call.

Modes (``python3 perfbench/worker.py <mode> ...``; ``src`` on PYTHONPATH):

``setup DB``
    Import what ``repro analyze`` imports and open the database: the
    CLI workloads' set-up, timed by the parent from spawn to exit.
``analyze-trace DB REPORT SPANS``
    Replay the calls ``repro analyze --db DB`` makes, in process, with a
    span around each call into a layer; write the report bytes to REPORT
    and the spans plus profile counters to SPANS.
``refresh DB SOURCE OUT_DIR RESULT``
    One long-lived refresh pass: set up (import, open, engine, first
    analysis), then ``--refreshes`` times ingest the next ``--delta``
    days of SOURCE's measurements with ``MeasurementStore.add_many``,
    advance the API, run the engine and render report and dashboard.
    Writes set-up time, refresh latencies, the report-sequence digest
    and (with ``--trace``) spans to RESULT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from contextlib import nullcontext
from pathlib import Path

import tracing

T_START = time.perf_counter()

#: Engine configuration of the refresh loop: the default engine with
#: diagnosis on, as ``examples/fab_fleet_monitoring.py`` runs it.
ROTATION_HZ = 29.5
MOVING_AVERAGE = 8


def _import_analyze_modules():
    """The modules ``python -m repro analyze`` loads, as one namespace."""
    import repro.__main__  # noqa: F401  (package + CLI, as ``-m repro``)
    from repro.analysis.engine import EngineConfig, VibrationAnalysisEngine
    from repro.analysis.reporting import render_report
    from repro.core.pipeline import PipelineConfig
    from repro.runtime import RuntimeProfile, SupervisionPolicy  # noqa: F401
    from repro.runtime.checkpoint import MANIFEST_NAME  # noqa: F401
    from repro.storage.api import AnalysisPeriod, DataRetrievalAPI
    from repro.storage.database import VibrationDatabase

    return argparse.Namespace(
        EngineConfig=EngineConfig,
        VibrationAnalysisEngine=VibrationAnalysisEngine,
        render_report=render_report,
        PipelineConfig=PipelineConfig,
        RuntimeProfile=RuntimeProfile,
        AnalysisPeriod=AnalysisPeriod,
        DataRetrievalAPI=DataRetrievalAPI,
        VibrationDatabase=VibrationDatabase,
    )


def _traced_types(m, tracer: tracing.Tracer):
    """Subclasses that open spans around the public layer calls.

    ``SpanProfile`` turns every known ``RuntimeProfile`` stage into a
    closed span (a stage ends when ``add`` is called, ``seconds`` after
    it began); a stage it does not know stays in its parent's self time.
    ``SpanAPI`` wraps the engine's one retrieval call and counts the rows
    and block length it returned.
    """

    class SpanProfile(m.RuntimeProfile):
        def add(self, name, seconds, items=0):
            end = time.perf_counter()
            layer = tracing.STAGE_LAYERS.get(name)
            if layer is not None:
                tracer.closed(layer, end - seconds, end)
            super().add(name, seconds, items)

    class SpanAPI(m.DataRetrievalAPI):
        rows = 0
        samples_per_row = 0

        def measurement_matrices_with_health(self, pump_ids=None):
            with tracer.span("storage.retrieve"):
                out = super().measurement_matrices_with_health(pump_ids)
            self.rows += int(out[3].shape[0])
            self.samples_per_row = int(out[3].shape[1])
            return out

    return SpanProfile, SpanAPI


def _counters(profiles, api, rows_written: int) -> dict:
    """Profile counters and transform item counts summed over engine runs."""
    counters = {"transform_rows": 0, "fleet_workers": 0}
    for profile in profiles:
        for name, value in profile.counters.items():
            if name == "fleet_workers":
                counters[name] = max(counters[name], value)
            else:
                counters[name] = counters.get(name, 0) + value
        transform = profile.stages.get("transform")
        counters["transform_rows"] += transform.items if transform else 0
    counters["rows_retrieved"] = api.rows
    counters["samples_per_row"] = api.samples_per_row
    counters["rows_written"] = rows_written
    return counters


def cmd_setup(args) -> None:
    m = _import_analyze_modules()
    m.VibrationDatabase(args.db).close()


def cmd_analyze_trace(args) -> None:
    tracer = tracing.Tracer()
    with tracer.span(tracing.ROOT) as root:
        root["start"] = T_START
        with tracer.span("cli.import"):
            m = _import_analyze_modules()
            from repro.cli import build_parser
        SpanProfile, SpanAPI = _traced_types(m, tracer)
        cli = build_parser().parse_args(["analyze", "--db", args.db])
        with tracer.span("storage.open"):
            db = m.VibrationDatabase(cli.db)
        api = SpanAPI(db, m.AnalysisPeriod(cli.start, cli.end))
        engine = m.VibrationAnalysisEngine(
            api,
            m.EngineConfig(
                pipeline=m.PipelineConfig(moving_average_window=cli.moving_average)
            ),
        )
        profile = SpanProfile()
        with tracer.span("analysis.engine"):
            report = engine.run(profile=profile)
        with tracer.span("analysis.render_report"):
            text = m.render_report(report, horizon_days=cli.horizon)
        Path(args.report).write_bytes((text + "\n").encode())
        db.close()
    Path(args.spans).write_text(json.dumps({
        "spans": tracer.spans,
        "counters": _counters([profile], api, 0),
    }))


def cmd_refresh(args) -> None:
    tracer = tracing.Tracer()
    span = tracer.span if args.trace else (lambda name: nullcontext())
    out_dir = Path(args.out_dir)
    digest = hashlib.sha256()
    profiles = []
    refresh_s: list[float] = []
    window_rows: list[int] = []
    rows_written = 0
    with span(tracing.ROOT) as root:
        if root is not None:
            root["start"] = T_START
        with span("cli.import"):
            m = _import_analyze_modules()
            from repro.viz.dashboard import write_dashboard
        if args.trace:
            SpanProfile, API = _traced_types(m, tracer)
        else:
            SpanProfile, API = None, m.DataRetrievalAPI
        with span("storage.open"):
            db = m.VibrationDatabase(args.db)
        api = API(db, m.AnalysisPeriod(0.0, args.t0))
        engine = m.VibrationAnalysisEngine(
            api,
            m.EngineConfig(
                pipeline=m.PipelineConfig(moving_average_window=MOVING_AVERAGE),
                rotation_hz=ROTATION_HZ,
            ),
        )

        def analyse():
            profile = SpanProfile() if args.trace else None
            with span("analysis.engine"):
                report = engine.run(profile=profile)
            if profile is not None:
                profiles.append(profile)
            return report

        def publish(report, index: int):
            with span("analysis.render_report"):
                text = m.render_report(report)
            page = out_dir / f"dashboard-{index}.html"
            with span("viz.dashboard"):
                write_dashboard(report, page)
            return text, page

        def check(report, text, page) -> None:
            digest.update(text.encode())
            digest.update(page.read_bytes())
            window_rows.append(int(report.measurement_ids.size))

        report = analyse()
        setup_s = time.perf_counter() - T_START
        with span("bench.check"):
            # Held-out measurements arrive later in the quarter; reading
            # them is input preparation, not part of any refresh.
            with m.VibrationDatabase(args.source) as source:
                held = source.measurements.query(
                    args.t0, args.t0 + args.refreshes * args.delta
                )
        text, page = publish(report, 0)
        with span("bench.check"):
            check(report, text, page)

        for index in range(1, args.refreshes + 1):
            hi = args.t0 + index * args.delta
            batch = [rec for rec in held if rec.timestamp_day < hi]
            held = held[len(batch):]
            start = time.perf_counter()
            with span("storage.write"):
                db.measurements.add_many(batch)
            api.advance(args.delta)
            report = analyse()
            text, page = publish(report, index)
            refresh_s.append(time.perf_counter() - start)
            rows_written += len(batch)
            with span("bench.check"):
                check(report, text, page)
        db.close()
    result = {
        "setup_s": setup_s,
        "refresh_s": refresh_s,
        "window_rows": window_rows[1:],
        "digest": digest.hexdigest(),
    }
    if args.trace:
        result["spans"] = tracer.spans
        result["counters"] = _counters(profiles, api, rows_written)
    Path(args.result).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("db")
    p.set_defaults(fn=cmd_setup)
    p = sub.add_parser("analyze-trace")
    p.add_argument("db")
    p.add_argument("report")
    p.add_argument("spans")
    p.set_defaults(fn=cmd_analyze_trace)
    p = sub.add_parser("refresh")
    p.add_argument("db")
    p.add_argument("source")
    p.add_argument("out_dir")
    p.add_argument("result")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--refreshes", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.set_defaults(fn=cmd_refresh)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
