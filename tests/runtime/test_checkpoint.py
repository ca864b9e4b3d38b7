"""Checkpoint journal: crash-safe, bit-identical transform resume.

The manifest is content-addressed (chunks keyed by input digest, payload
verified by output digest on load), so resume can never serve stale or
torn data — worst case it recomputes.  These tests drive the journal
through :class:`AnalysisPipeline` exactly as the engine does.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.pipeline import AnalysisPipeline
from repro.runtime.cache import PeakFeatureCache, array_digest
from repro.runtime.checkpoint import MANIFEST_NAME, CheckpointManager

N, K = 40, 64
CHUNK_ROWS = 16  # 3 chunks over N rows


@pytest.fixture()
def blocks():
    rng = np.random.default_rng(42)
    return rng.normal(size=(N, K, 3))


def make_pipeline(ckpt_dir=None, run_key="test-v1") -> AnalysisPipeline:
    checkpoint = CheckpointManager(ckpt_dir, run_key=run_key) if ckpt_dir else None
    return AnalysisPipeline(
        PipelineConfig(),
        cache=PeakFeatureCache(),
        chunk_rows=CHUNK_ROWS,
        checkpoint=checkpoint,
    )


class TestJournalAndResume:
    def test_resume_is_bit_identical_and_all_hits(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        first = make_pipeline(tmp_path).transform(blocks)
        for ref, got in zip(reference, first):
            assert np.array_equal(ref, got)

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 3
        assert resumed_pipeline.checkpoint.misses == 0
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_manifest_format_is_versioned_and_content_addressed(
        self, tmp_path, blocks
    ):
        make_pipeline(tmp_path).transform(blocks)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["version"] == 1
        assert manifest["run_key"] == "test-v1"
        assert sorted(manifest["chunks"]) == ["0", "1", "2"]
        entry = manifest["chunks"]["0"]
        assert entry["lo"] == 0 and entry["hi"] == CHUNK_ROWS
        assert entry["input_digest"] == array_digest(blocks[:CHUNK_ROWS]).hex()
        assert (tmp_path / entry["payload"]).exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_run_resumes_from_completed_chunks(
        self, tmp_path, blocks, monkeypatch
    ):
        """Crash after two chunks: the resumed run recalls them from the
        journal, recomputes the rest, and matches an uninterrupted run."""
        import repro.runtime.batch as batch_mod

        reference = make_pipeline().transform(blocks)
        real_tiled = batch_mod._transform_tiled
        calls = {"n": 0}

        def dying_tiled(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt("simulated crash mid-run")
            return real_tiled(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "_transform_tiled", dying_tiled)
        with pytest.raises(KeyboardInterrupt):
            make_pipeline(tmp_path).transform(blocks)
        monkeypatch.setattr(batch_mod, "_transform_tiled", real_tiled)

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_torn_payload_self_heals(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        make_pipeline(tmp_path).transform(blocks)
        (tmp_path / "chunk-00001.npz").write_bytes(b"torn mid-write")

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_changed_input_bytes_are_not_served(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        changed = blocks.copy()
        changed[3, 0, 0] += 1.0
        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(changed)
        # Chunk 0 holds the changed row: recomputed, chunks 1-2 recalled.
        assert resumed_pipeline.checkpoint.hits == 2
        assert resumed_pipeline.checkpoint.misses == 1
        reference = make_pipeline().transform(changed)
        for ref, got in zip(reference, resumed):
            assert np.array_equal(ref, got)

    def test_run_key_mismatch_starts_fresh(self, tmp_path, blocks):
        make_pipeline(tmp_path, run_key="test-v1").transform(blocks)
        other = make_pipeline(tmp_path, run_key="other-config")
        other.transform(blocks)
        assert other.checkpoint.hits == 0
        assert other.checkpoint.misses == 3


def superseded(ckpt_dir) -> list[str]:
    return json.loads((ckpt_dir / MANIFEST_NAME).read_text())["superseded"]


class TestStaleCacheRevalidation:
    def test_warm_hit_cannot_resurrect_superseded_chunk(self, tmp_path, blocks):
        """The manifest records superseded chunks, but no warm hit needs
        checking against them: the transform row memo is keyed by row
        content, so a hit can only serve the bytes it was computed from."""
        pipeline = make_pipeline(tmp_path)
        pipeline.transform(blocks)

        # A second run over different bytes re-records every chunk slot,
        # superseding the original digests in the shared manifest.
        changed = blocks + 1.0
        other = AnalysisPipeline(
            PipelineConfig(),
            cache=PeakFeatureCache(),
            chunk_rows=CHUNK_ROWS,
            checkpoint=pipeline.checkpoint,
        )
        other.transform(changed)
        chunk_key = array_digest(blocks[:CHUNK_ROWS]).hex()
        assert chunk_key in superseded(tmp_path)

        # The first pipeline's warm rerun serves every row from its memo,
        # bit-identical to a cold transform.
        reference = make_pipeline().transform(blocks)
        warm = pipeline.transform(blocks)
        assert pipeline.transform_hits == N
        for ref, got in zip(reference, warm):
            assert np.array_equal(ref, got)

        # A cold pipeline over the same journal recomputes the chunks;
        # re-recording un-supersedes their digests.
        rerun = make_pipeline(tmp_path).transform(blocks)
        for ref, got in zip(reference, rerun):
            assert np.array_equal(ref, got)
        assert chunk_key not in superseded(tmp_path)

        # Content keying: changing one sample of a seen row re-transforms
        # that row and only that row.
        poked = blocks.copy()
        poked[7, 3, 1] += 1e-9
        hits0, misses0 = pipeline.transform_hits, pipeline.transform_misses
        result = pipeline.transform(poked)
        assert pipeline.transform_misses - misses0 == 1
        assert pipeline.transform_hits - hits0 == N - 1
        for ref, got in zip(make_pipeline().transform(poked), result):
            assert np.array_equal(ref, got)
        assert not np.array_equal(result[2][7], reference[2][7])


class TestAtomicity:
    def test_partial_manifest_is_ignored(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        manifest_path = tmp_path / MANIFEST_NAME
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        resumed_pipeline = make_pipeline(tmp_path)
        resumed_pipeline.transform(blocks)
        # Unreadable manifest -> fresh start, re-journaled cleanly.
        assert resumed_pipeline.checkpoint.misses == 3
        assert json.loads(manifest_path.read_text())["version"] == 1

    def test_describe_mentions_directory_and_chunks(self, tmp_path, blocks):
        pipeline = make_pipeline(tmp_path)
        pipeline.transform(blocks)
        text = pipeline.checkpoint.describe()
        assert str(tmp_path) in text
        assert "3 chunk(s)" in text
