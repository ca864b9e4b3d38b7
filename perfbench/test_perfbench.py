"""Tests of the benchmark's own code (no workload is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import steady
import tracing

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


class TestMetricGrammar:
    def test_names_and_units_are_well_formed(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for metric in metrics:
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")

    def test_spec_matches_what_the_driver_prints(self):
        for workload in SPEC["workloads"]:
            assert workload["name"] in run.WORKLOADS
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())


class TestFailedFraction:
    def test_pinned_digest_must_match(self):
        checker = run.Checker(pin="a" * 64)
        assert checker.check(True, "a" * 64)
        assert not checker.check(True, "b" * 64)
        assert (checker.attempted, checker.failed) == (2, 1)
        assert checker.failed_frac == 0.5

    def test_unpinned_seed_must_repeat_its_first_digest(self):
        checker = run.Checker(pin=None)
        assert checker.check(True, "c" * 64)
        assert checker.check(True, "c" * 64)
        assert not checker.check(True, "d" * 64)
        assert checker.expected == "c" * 64
        assert checker.failed_frac == pytest.approx(1 / 3)

    def test_crash_counts_every_operation_it_covered(self):
        checker = run.Checker(pin=None)
        checker.check(False, None, ops=3)
        checker.check(True, "e" * 64, ops=3)
        assert (checker.attempted, checker.failed) == (6, 3)

    def test_tampered_report_is_caught(self):
        report = (
            b"VIBRATION ANALYTICS - FLEET REPORT\n"
            b"Measurements analyzed: 8640 (8640 valid)\n  pump 3  RUL 120\n"
        )
        checker = run.Checker(pin=run.sha256(report))
        assert run.report_ok(report, 8640)
        assert checker.check(True, run.sha256(report))
        tampered = report.replace(b"RUL 120", b"RUL 121")
        assert run.report_ok(tampered, 8640)
        assert not checker.check(True, run.sha256(tampered))
        assert not run.report_ok(report, 34560)
        assert checker.failed == 1

    def test_pins_are_sha256_per_workload_and_seed(self):
        for workload, pins in run.load_pins().items():
            assert workload in run.WORKLOADS
            for seed, digest in pins.items():
                assert int(seed) >= 0
                assert re.fullmatch(r"[0-9a-f]{64}", digest)


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent(self):
        spans = [
            span(tracing.ROOT, 0.0, 10.0, None),
            span("cli.import", 0.0, 2.0, 0),
            span("analysis.engine", 3.0, 9.0, 0),
            span("storage.retrieve", 3.0, 4.0, 2),
            span("runtime.transform", 4.5, 6.5, 2),
        ]
        assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.0, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [
            span(tracing.ROOT, 0.0, 10.0, None),
            span("analysis.engine", 1.0, 9.0, 0),
            span("runtime.transform", 2.0, 5.0, 1),
            span("core.preprocess", 4.0, 6.0, 1),
            span("core.score_da", 8.5, 9.5, 1),
        ]
        # Children cover [2, 6] and [8.5, 9]: 4.5 s of the engine's 8 s.
        assert tracing.self_times(spans)[1] == pytest.approx(3.5)

    def test_layer_seconds_sum_to_the_total(self):
        spans = [
            span(tracing.ROOT, 0.0, 10.0, None),
            span("cli.import", 0.0, 2.0, 0),
            span("analysis.engine", 3.0, 9.0, 0),
            span("storage.retrieve", 3.0, 4.0, 2),
            span("runtime.transform", 4.0, 6.0, 2),
            span("runtime.transform", 6.0, 6.5, 2),
            span("bench.check", 9.0, 9.5, 0),
        ]
        layers = tracing.layer_seconds(spans)
        assert layers["cli.import_s"] == pytest.approx(2.0)
        assert layers["runtime.transform_s"] == pytest.approx(2.5)
        assert layers["analysis.engine_other_s"] == pytest.approx(2.5)
        assert layers["storage.write_s"] == 0.0
        assert layers["trace.total_s"] == pytest.approx(9.5)
        assert layers["trace.unattributed_s"] == pytest.approx(1.5)
        own = sum(v for k, v in layers.items() if not k.startswith("trace."))
        assert own + layers["trace.unattributed_s"] == pytest.approx(
            layers["trace.total_s"]
        )

    def test_unknown_span_and_missing_root_are_rejected(self):
        with pytest.raises(ValueError, match="names no layer"):
            tracing.layer_seconds([
                span(tracing.ROOT, 0.0, 1.0, None), span("mystery", 0.1, 0.2, 0)
            ])
        with pytest.raises(ValueError, match="expected one"):
            tracing.layer_seconds([span("cli.import", 0.0, 1.0, None)])

    def test_tracer_nests_spans_and_closed_spans(self):
        tracer = tracing.Tracer()
        with tracer.span(tracing.ROOT):
            with tracer.span("analysis.engine"):
                tracer.closed("runtime.transform", 0.0, 0.0)
        assert [s["parent"] for s in tracer.spans] == [None, 0, 1]
        assert all(s["end"] is not None for s in tracer.spans)


class TestStatistics:
    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        assert run.tail([1.0] * 10) is None
        samples = [float(i) for i in range(1, 41)]
        tail = run.tail(samples)
        assert tail["percentile"] == 75 and tail["samples"] == 40
        assert sum(v > tail["value"] for v in samples) == 10

    def test_spread_uses_quartiles_over_the_median(self):
        median, q1, q3, share = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (median, q1, q3) == (3.0, 1.5, 4.5)
        assert share == pytest.approx(1.0)

    def test_seed_ranges(self):
        assert steady.parse_seeds("1-3,7") == [1, 2, 3, 7]
