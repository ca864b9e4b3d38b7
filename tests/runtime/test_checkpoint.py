"""Row journal: the row memo on disk, crash-safe and bit-identical.

Segments are keyed by row content (the row memo's keys) and verified by
a digest on load, so resume can never serve stale or torn data — worst
case it recomputes.  These tests drive the journal through
:class:`AnalysisPipeline` exactly as the engine does.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.runtime.batch as batch_mod
from repro.core.pipeline import AnalysisPipeline, PipelineConfig
from repro.runtime.cache import array_digest, row_digests
from repro.runtime.checkpoint import MANIFEST_NAME, RowJournal

N, K = 40, 64
SEGMENT_ROWS = 16  # 3 segments over N rows


@pytest.fixture(autouse=True)
def small_segments(monkeypatch):
    monkeypatch.setattr(batch_mod, "DEFAULT_CHUNK_ROWS", SEGMENT_ROWS)


@pytest.fixture()
def blocks():
    rng = np.random.default_rng(42)
    return rng.normal(size=(N, K, 3))


def make_pipeline(ckpt_dir=None) -> AnalysisPipeline:
    journal = RowJournal(ckpt_dir) if ckpt_dir else None
    return AnalysisPipeline(PipelineConfig(), journal=journal)


def assert_identical(reference, got) -> None:
    for ref, out in zip(reference, got):
        assert np.array_equal(ref, out)


def manifest(ckpt_dir) -> dict:
    return json.loads((ckpt_dir / MANIFEST_NAME).read_text())


class TestJournalAndResume:
    def test_resume_is_bit_identical_and_all_hits(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        first_pipeline = make_pipeline(tmp_path)
        assert_identical(reference, first_pipeline.transform(blocks))
        assert first_pipeline.journal_hits == 0
        assert first_pipeline.journal_misses == N

        resumed_pipeline = make_pipeline(tmp_path)
        assert len(resumed_pipeline.memo_keys) == N
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.journal_hits == N
        assert resumed_pipeline.journal_misses == 0
        assert resumed_pipeline.transform_misses == 0
        assert_identical(reference, resumed)
        # Nothing new to journal.
        assert len(manifest(tmp_path)["segments"]) == 3

    def test_manifest_format_is_versioned_and_content_addressed(
        self, tmp_path, blocks
    ):
        make_pipeline(tmp_path).transform(blocks)
        data = manifest(tmp_path)
        assert data["version"] == 3
        assert sorted(data) == ["segments", "version"]
        segments = data["segments"]
        assert [entry["payload"] for entry in segments] == [
            "segment-00000.npz", "segment-00001.npz", "segment-00002.npz"
        ]
        assert {entry["width"] for entry in segments} == {K}
        assert {entry["spec"] for entry in segments} == {
            "peaks=20 window=24 fs=4000.0"
        }
        with np.load(tmp_path / segments[0]["payload"]) as archive:
            keys = [row.tobytes() for row in archive["keys"]]
            assert archive["psd"].shape == (SEGMENT_ROWS, K)
            assert archive["psd_index"].tolist() == list(range(SEGMENT_ROWS))
            assert archive["peak_frequencies"].shape == (SEGMENT_ROWS, 20)
            assert archive["peak_counts"].shape == (SEGMENT_ROWS,)
        assert keys == row_digests(blocks[:SEGMENT_ROWS])
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_run_resumes_from_completed_chunks(
        self, tmp_path, blocks, monkeypatch
    ):
        """Crash after two segments: the resumed run recalls their rows
        from the journal, recomputes the rest, and matches an
        uninterrupted run."""
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
        assert resumed_pipeline.journal_hits == 2 * SEGMENT_ROWS
        assert resumed_pipeline.journal_misses == N - 2 * SEGMENT_ROWS
        assert_identical(reference, resumed)

    def test_torn_payload_self_heals(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        make_pipeline(tmp_path).transform(blocks)
        (tmp_path / "segment-00001.npz").write_bytes(b"torn mid-write")

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.journal_hits == N - SEGMENT_ROWS
        assert resumed_pipeline.journal_misses == SEGMENT_ROWS
        assert_identical(reference, resumed)
        # The recomputed rows are journaled again, in a segment of their own.
        again = make_pipeline(tmp_path)
        assert_identical(reference, again.transform(blocks))
        assert again.journal_hits == N

    def test_digest_mismatch_is_recomputed(self, tmp_path, blocks):
        reference = make_pipeline().transform(blocks)
        make_pipeline(tmp_path).transform(blocks)
        # A well-formed payload whose outputs no longer match the digest.
        path = tmp_path / "segment-00000.npz"
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["psd"] = arrays["psd"] + 1.0
        np.savez(path, **arrays)

        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(blocks)
        assert resumed_pipeline.journal_hits == N - SEGMENT_ROWS
        assert_identical(reference, resumed)

    def test_changed_input_bytes_are_not_served(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        changed = blocks.copy()
        changed[3, 0, 0] += 1.0
        resumed_pipeline = make_pipeline(tmp_path)
        resumed = resumed_pipeline.transform(changed)
        # Only the changed row is recomputed; every other row is recalled.
        assert resumed_pipeline.journal_hits == N - 1
        assert resumed_pipeline.journal_misses == 1
        assert_identical(make_pipeline().transform(changed), resumed)

    def test_version_1_manifest_is_ignored(self, tmp_path, blocks):
        """A chunk journal from an older build, whose poisoned chunk is
        addressed by the rows' own bytes, is never read."""
        n = blocks.shape[0]
        np.savez(
            tmp_path / "chunk-00000.npz",
            offsets=np.zeros((n, 3)), rms=np.zeros(n), psd=np.zeros((n, K)),
        )
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "version": 1,
            "run_key": "transform-v2:chunk_rows=8192",
            "chunks": {"0": {"lo": 0, "hi": n, "payload": "chunk-00000.npz",
                             "input_digest": array_digest(blocks).hex()}},
            "superseded": [],
        }))
        pipeline = make_pipeline(tmp_path)
        assert len(pipeline.memo_keys) == 0
        assert_identical(make_pipeline().transform(blocks), pipeline.transform(blocks))
        assert pipeline.journal_hits == 0
        assert pipeline.journal_misses == N
        assert manifest(tmp_path)["version"] == 3

    def test_version_2_manifest_is_ignored(self, tmp_path, blocks):
        """A PSD journal from an older build has no peaks: it is never
        read, the journal says why, and the first append replaces it."""
        n = blocks.shape[0]
        keys = np.frombuffer(b"".join(row_digests(blocks)), dtype=np.uint8)
        np.savez(
            tmp_path / "segment-00000.npz",
            keys=keys.reshape(n, -1), offsets=np.zeros((n, 3)), rms=np.zeros(n),
            psd=np.zeros((n, K)),
        )
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "version": 2,
            "segments": [{"payload": "segment-00000.npz", "width": K,
                          "digest": "0" * 40}],
        }))
        journal = RowJournal(tmp_path)
        assert journal.unusable == "is version 2, not 3"
        pipeline = AnalysisPipeline(PipelineConfig(), journal=journal)
        assert len(pipeline.memo_keys) == 0
        assert_identical(make_pipeline().transform(blocks), pipeline.transform(blocks))
        assert pipeline.journal_hits == 0
        assert manifest(tmp_path)["version"] == 3
        assert RowJournal(tmp_path).unusable is None

    def test_unusable_says_why_a_manifest_was_ignored(self, tmp_path, blocks):
        assert RowJournal(tmp_path).unusable is None  # no manifest at all
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1, "chunks": {}}')
        assert RowJournal(tmp_path).unusable == "is version 1, not 3"
        (tmp_path / MANIFEST_NAME).write_text('{"version": 3, "segm')
        assert RowJournal(tmp_path).unusable == "is unreadable"
        (tmp_path / MANIFEST_NAME).write_text('{"version": 3, "segments": 7}')
        assert RowJournal(tmp_path).unusable == "is unreadable"

    def test_rows_of_other_peak_parameters_are_not_recalled(self, tmp_path, blocks):
        """Peaks depend on the peak parameters, so a pipeline recalls only
        segments journaled under its own."""
        make_pipeline(tmp_path).transform(blocks)
        config = PipelineConfig(num_peaks=7)
        other = AnalysisPipeline(config, journal=RowJournal(tmp_path))
        assert len(other.memo_keys) == 0
        got = other.transform(blocks)
        assert got.peak_frequencies.shape == (N, 7)
        assert_identical(AnalysisPipeline(config).transform(blocks), got)
        again = make_pipeline(tmp_path)
        assert_identical(make_pipeline().transform(blocks), again.transform(blocks))
        assert again.journal_hits == N

    def test_kept_psd_rows_are_journaled_and_recalled(self, tmp_path, blocks):
        """A segment journals the PSD of the rows the run kept; a later
        run that wants another row's PSD transforms that row again."""
        reference = make_pipeline().transform(blocks)
        make_pipeline(tmp_path).transform(blocks, psd_rows=[1, 5, 20])
        with np.load(tmp_path / "segment-00001.npz") as archive:
            assert archive["psd_index"].tolist() == [4]
            assert archive["psd"].shape == (1, K)
        resumed = make_pipeline(tmp_path)
        digests = row_digests(blocks)
        assert set(resumed.psd_keys) == {digests[i] for i in (1, 5, 20)}
        got = resumed.transform(blocks, psd_rows=[5, 2])
        assert resumed.journal_hits == N - 1
        assert resumed.transform_misses == 1  # row 2's PSD was not kept
        np.testing.assert_array_equal(got.psd_rows, [2, 5])
        assert got.psd.tobytes() == reference.psd[[2, 5]].tobytes()
        for ref, have in zip(reference[:5], got[:5]):
            assert ref.tobytes() == have.tobytes()

    def test_only_the_newest_psd_width_is_loaded(self, tmp_path, blocks):
        """Rows of another block length have other bytes, so their
        segments can never hit; only the newest width seeds the memo."""
        short = blocks[:, : K // 2].copy()
        make_pipeline(tmp_path).transform(blocks)
        make_pipeline(tmp_path).transform(short)
        pipeline = make_pipeline(tmp_path)
        assert set(pipeline.memo_keys) == set(row_digests(short))
        assert_identical(make_pipeline().transform(short), pipeline.transform(short))
        assert pipeline.journal_hits == N


class TestStaleCacheRevalidation:
    def test_each_input_recalls_only_its_own_rows(self, tmp_path, blocks):
        """Two inputs journaled into one directory: each recalls exactly
        its own rows, bit-identical to a cold transform, and a warm
        memo re-transforms (and journals) only a row whose bytes
        changed."""
        changed = blocks + 1.0
        pipeline = make_pipeline(tmp_path)
        pipeline.transform(blocks)
        other = make_pipeline(tmp_path)
        other.transform(changed)
        assert other.journal_hits == 0
        assert other.journal_misses == N

        for data in (blocks, changed):
            resumed = make_pipeline(tmp_path)
            assert_identical(make_pipeline().transform(data), resumed.transform(data))
            assert resumed.journal_hits == N
            assert resumed.journal_misses == 0

        # Content keying: changing one sample of a seen row re-transforms
        # that row and only that row.
        reference = make_pipeline().transform(blocks)
        poked = blocks.copy()
        poked[7, 3, 1] += 1e-9
        hits0, misses0 = pipeline.transform_hits, pipeline.transform_misses
        journaled0 = pipeline.journal_misses
        result = pipeline.transform(poked)
        assert pipeline.transform_misses - misses0 == 1
        assert pipeline.transform_hits - hits0 == N - 1
        assert pipeline.journal_misses - journaled0 == 1
        assert_identical(make_pipeline().transform(poked), result)
        assert not np.array_equal(result.psd[7], reference.psd[7])


class TestAtomicity:
    def test_partial_manifest_is_ignored(self, tmp_path, blocks):
        make_pipeline(tmp_path).transform(blocks)
        manifest_path = tmp_path / MANIFEST_NAME
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        resumed_pipeline = make_pipeline(tmp_path)
        resumed_pipeline.transform(blocks)
        # Unreadable manifest -> fresh start, re-journaled cleanly.
        assert resumed_pipeline.journal_hits == 0
        assert resumed_pipeline.journal_misses == N
        assert manifest(tmp_path)["version"] == 3
        assert len(manifest(tmp_path)["segments"]) == 3
