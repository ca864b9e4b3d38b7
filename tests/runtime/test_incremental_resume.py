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
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.profile import RuntimeProfile

from tests.runtime.conftest import make_workload

CHUNK_ROWS = 64


def make_pipeline(ckpt_dir=None) -> AnalysisPipeline:
    checkpoint = CheckpointManager(ckpt_dir) if ckpt_dir else None
    return AnalysisPipeline(
        PipelineConfig(),
        chunk_rows=CHUNK_ROWS,
        checkpoint=checkpoint,
    )


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
    assert resumed_pipeline.checkpoint.hits == 1
    assert resumed_pipeline.checkpoint.misses >= 1
    np.testing.assert_array_equal(resumed.da, reference.da)
    np.testing.assert_array_equal(resumed.psd, reference.psd)
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
    assert resumed_pipeline.checkpoint.hits == 1
    np.testing.assert_array_equal(resumed.offsets, reference.offsets)
    np.testing.assert_array_equal(resumed.rms, reference.rms)
    np.testing.assert_array_equal(resumed.psd, reference.psd)
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
    assert profile.counters["transform_cache_hits"] == n
    assert profile.counters["transform_cache_misses"] == n + 8
    # Rows actually transformed: the chunk the kill left unjournaled,
    # then the 8 new rows.
    assert profile.stages["transform"].items == (n - CHUNK_ROWS) + 8
    np.testing.assert_array_equal(grown.offsets, cold.offsets)
    np.testing.assert_array_equal(grown.rms, cold.rms)
    np.testing.assert_array_equal(grown.da, cold.da)
    np.testing.assert_array_equal(grown.psd, cold.psd)
