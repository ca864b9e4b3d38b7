"""In-memory spans and the self-time arithmetic behind the per-layer metrics.

A span is a dict ``{"name", "start", "end", "parent"}`` where ``parent`` is
the index of the enclosing span (``None`` for the root).  Spans stay in
memory while the traced replay runs and are written out once at the end.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: ``RuntimeProfile`` stage name -> layer span name.  The stages are the
#: public per-stage timings the engine reports through ``engine.run``.
STAGE_LAYERS = {
    "transform": "runtime.transform",
    "preprocess": "core.preprocess",
    "fit_classifier": "core.fit_classifier",
    "score_da": "core.score_da",
    "classify_zones": "core.classify_zones",
    "learn_threshold": "core.learn_threshold",
    "fit_lifetime_models": "core.fit_lifetime_models",
    "predict_rul": "core.predict_rul",
    "diagnose": "core.diagnose",
}

#: Span name -> per-layer metric name for every layer span a replay opens.
#: The engine span's self time is what ``engine.run`` does besides
#: retrieval and the profiled stages (finite mask, label join, cost).
LAYER_METRICS = {
    "cli.import": "cli.import_s",
    "storage.open": "storage.open_s",
    "storage.retrieve": "storage.retrieve_s",
    "storage.write": "storage.write_s",
    **{span: span + "_s" for span in STAGE_LAYERS.values()},
    "analysis.engine": "analysis.engine_other_s",
    "analysis.render_report": "analysis.render_report_s",
    "viz.dashboard": "viz.dashboard_s",
}

ROOT = "trace.root"

#: Prefix of spans around the benchmark's own bookkeeping (reading
#: held-out inputs, hashing reports): not a layer, and not traced time.
BENCH = "bench."


class Tracer:
    """Collects spans from one thread; the first span opened is the root."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def closed(self, name: str, start: float, end: float) -> None:
        """Add an already finished span under the innermost open span."""
        self.spans.append({
            "name": name,
            "start": start,
            "end": end,
            "parent": self._open[-1] if self._open else None,
        })


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children[index]
        ]
        out.append((span["end"] - span["start"]) - _covered(clipped))
    return out


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer metric, plus the root's total and remainder.

    Returns every name in :data:`LAYER_METRICS` (0.0 for a layer the
    replay never entered), ``trace.total_s`` (the root span's duration
    less the benchmark's own ``bench.*`` spans) and
    ``trace.unattributed_s`` (the root's own self time, i.e. that total
    minus the sum of all layer self times).
    """
    out = dict.fromkeys(LAYER_METRICS.values(), 0.0)
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    if len(roots) != 1 or spans[roots[0]]["name"] != ROOT:
        raise ValueError(f"expected one {ROOT!r} span, found roots {roots}")
    selfs = self_times(spans)
    bench = 0.0
    for span, seconds in zip(spans, selfs):
        if span["name"] == ROOT:
            continue
        if span["name"].startswith(BENCH):
            bench += span["end"] - span["start"]
            continue
        metric = LAYER_METRICS.get(span["name"])
        if metric is None:
            raise ValueError(f"span {span['name']!r} names no layer")
        out[metric] += seconds
    root = spans[roots[0]]
    out["trace.total_s"] = root["end"] - root["start"] - bench
    out["trace.unattributed_s"] = selfs[roots[0]]
    return out
