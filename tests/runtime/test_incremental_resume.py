"""Interrupted incremental windows resume bit-identically.

A rolling-window refresh that dies mid-transform (crash, SIGTERM, OOM
kill) must be able to resume from the checkpoint journal and produce the
exact bytes an uninterrupted run would have produced — same feature
matrix, same report-facing arrays — and then keep rolling with the
transform row memo.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime.batch as batch_mod
from repro.core.pipeline import PipelineConfig
from repro.core.pipeline import AnalysisPipeline
from repro.runtime.checkpoint import RowJournal
from repro.runtime.profile import RuntimeProfile

from tests.runtime.conftest import make_workload

SEGMENT_ROWS = 64


@pytest.fixture(autouse=True)
def small_segments(monkeypatch):
    monkeypatch.setattr(batch_mod, "DEFAULT_CHUNK_ROWS", SEGMENT_ROWS)


def assert_kept_psd_and_peaks_equal(got, want) -> None:
    """Every row's peaks, and the kept PSD rows with their indices."""
    for name in ("frequencies", "values", "counts"):
        np.testing.assert_array_equal(
            getattr(got.peaks, name), getattr(want.peaks, name)
        )
    np.testing.assert_array_equal(got.psd_rows, want.psd_rows)
    np.testing.assert_array_equal(got.psd, want.psd)


def make_pipeline(ckpt_dir=None) -> AnalysisPipeline:
    journal = RowJournal(ckpt_dir) if ckpt_dir else None
    return AnalysisPipeline(PipelineConfig(), journal=journal)


@pytest.fixture(scope="module")
def window():
    return make_workload(n_pumps=4, per_pump=30, num_samples=256, seed=3)


def test_killed_batch_window_resumes_bit_identical(tmp_path, window, monkeypatch):
    ids, days, blocks, labels = window
    reference = make_pipeline().run(ids, days, blocks, labels)

    real_tiled = batch_mod._transform_tiled
    calls = {"n": 0}

    def dying_tiled(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise KeyboardInterrupt("simulated mid-window kill")
        return real_tiled(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "_transform_tiled", dying_tiled)
    with pytest.raises(KeyboardInterrupt):
        make_pipeline(tmp_path).run(ids, days, blocks, labels)
    monkeypatch.setattr(batch_mod, "_transform_tiled", real_tiled)

    resumed_pipeline = make_pipeline(tmp_path)
    resumed = resumed_pipeline.run(ids, days, blocks, labels)
    # The kill left one segment journaled; only the other rows recompute.
    assert resumed_pipeline.journal_hits == SEGMENT_ROWS
    assert resumed_pipeline.journal_misses == blocks.shape[0] - SEGMENT_ROWS
    np.testing.assert_array_equal(resumed.da, reference.da)
    assert_kept_psd_and_peaks_equal(resumed, reference)
    np.testing.assert_array_equal(resumed.zones, reference.zones)


def test_killed_incremental_window_resumes_bit_identical(
    tmp_path, window, monkeypatch
):
    """Kill a refresh mid-window, then resume with a cold pipeline over
    the same checkpoint directory: the feature matrix — offsets, RMS,
    PSD — and everything downstream must be bit-identical to an
    uninterrupted run.  Growing the window afterwards transforms only
    the new rows."""
    ids, days, blocks, labels = window
    n = blocks.shape[0]
    reference = make_pipeline().run(ids, days, blocks, labels)

    real_tiled = batch_mod._transform_tiled
    calls = {"n": 0}

    def dying_tiled(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise KeyboardInterrupt("simulated mid-window kill")
        return real_tiled(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "_transform_tiled", dying_tiled)
    with pytest.raises(KeyboardInterrupt):
        make_pipeline(tmp_path).run(ids, days, blocks, labels)
    monkeypatch.setattr(batch_mod, "_transform_tiled", real_tiled)

    resumed_pipeline = make_pipeline(tmp_path)
    profile = RuntimeProfile()
    resumed = resumed_pipeline.run(ids, days, blocks, labels, profile=profile)
    assert profile.counters["checkpoint_hits"] == SEGMENT_ROWS
    np.testing.assert_array_equal(resumed.offsets, reference.offsets)
    np.testing.assert_array_equal(resumed.rms, reference.rms)
    assert_kept_psd_and_peaks_equal(resumed, reference)
    np.testing.assert_array_equal(resumed.da, reference.da)

    # The resumed pipeline keeps rolling: growing the window transforms
    # only the tail and stays bit-identical to a cold run of the grown
    # window.
    rng = np.random.default_rng(99)
    extra = rng.normal(size=(8, blocks.shape[1], 3)) + 0.1
    grown_blocks = np.concatenate([blocks, extra])
    grown_ids = np.concatenate([ids, np.zeros(8, dtype=ids.dtype)])
    grown_days = np.concatenate([days, np.full(8, days.max() + 1.0)])
    grown = resumed_pipeline.run(
        grown_ids, grown_days, grown_blocks, labels, profile=profile
    )
    cold = make_pipeline().run(grown_ids, grown_days, grown_blocks, labels)
    # In-process memo hits: the grown run's n known rows; journal hits:
    # the resumed run's one journaled segment.
    assert profile.counters["transform_cache_hits"] == n
    assert profile.counters["checkpoint_hits"] == SEGMENT_ROWS
    # Rows actually transformed, and journaled: the rows the kill left
    # unjournaled, then the 8 new rows.
    transformed = (n - SEGMENT_ROWS) + 8
    assert profile.counters["transform_cache_misses"] == transformed
    assert profile.counters["checkpoint_misses"] == transformed
    assert profile.stages["transform"].items == transformed
    np.testing.assert_array_equal(grown.offsets, cold.offsets)
    np.testing.assert_array_equal(grown.rms, cold.rms)
    np.testing.assert_array_equal(grown.da, cold.da)
    assert_kept_psd_and_peaks_equal(grown, cold)
