"""The row memo on disk: a crash-safe journal of transformed rows.

:class:`~repro.core.pipeline.AnalysisPipeline` memoizes each row's
per-row features — offsets, RMS and packed harmonic peaks, plus the PSD
row when a stage reads it — under the row's key
(:func:`~repro.runtime.cache.row_key`, the digest the measurement store
writes at ingest).  :class:`RowJournal` keeps that memo on disk as
append-only *segments*: every batch of rows the pipeline transforms — at
most :data:`~repro.runtime.batch.DEFAULT_CHUNK_ROWS` rows — is written as
one ``.npz`` payload plus an entry in a JSON manifest.  A pipeline built
over the journal seeds its row memo from it, so a run interrupted by a
crash, ``SIGTERM`` or ``SIGINT`` — or a second run over an unchanged
window — transforms only the rows no segment holds.  Resume is
*bit-identical*:

* rows are recalled by key, and equal keys mean equal row bytes, so a
  segment can only serve the bytes that produced it;
* peaks depend on the pipeline's peak parameters as well, so each
  segment records them (its ``spec``) and only segments of the loading
  pipeline's spec are read;
* each entry carries a digest over the segment's arrays that is
  re-verified on load, so a torn or bit-rotted segment is recomputed
  instead of trusted;
* every write is atomic (write to a temp file, ``fsync``, then
  ``os.replace``), payload before manifest, so the manifest never
  references a half-written payload and a crash mid-write leaves the
  previous state intact.

Format (``manifest.json``, version 3)::

    {
      "version": 3,
      "segments": [
        {"payload": "segment-00000.npz", "width": 1024,
         "spec": "peaks=20 window=24 fs=4000.0",
         "digest": "<sha1 hex over the payload's arrays>"},
        ...
      ]
    }

A payload holds ``keys``, ``offsets``, ``rms``, ``peak_frequencies``,
``peak_values`` and ``peak_counts`` of every row, and ``psd`` rows for
the rows at ``psd_index`` (positions within the segment) — the rows the
run kept a PSD for.  A manifest of any other version (the version-1
chunk journal and the version-2 PSD journal of older builds) is
ignored, :attr:`RowJournal.unusable` says why, and the first append
replaces it.  Segments are never compacted: the journal grows by at
least one segment per run that transforms rows.  See
``docs/RELIABILITY.md`` for the recovery runbook.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.runtime.cache import array_digest

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 3
SEGMENT_ARRAYS = (
    "keys",
    "offsets",
    "rms",
    "peak_frequencies",
    "peak_values",
    "peak_counts",
    "psd_index",
    "psd",
)


def _atomic_write(path: Path, write: Callable) -> None:
    """Write ``path`` via ``write(file)`` to a temp file + fsync + rename.

    After ``os.replace`` the file is either fully the old content or
    fully the new content; the directory entry is fsynced best-effort so
    the rename itself survives power loss on journaling filesystems.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(dir_fd)


def _segment_digest(arrays) -> str:
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(array_digest(array))
    return digest.hexdigest()


class RowJournal:
    """Append-only segments of transformed rows in one directory.

    Attributes:
        directory: journal directory (created on first append).
        unusable: why an existing manifest was ignored (another version,
            or unreadable), or None when there is none or it is read.
        spec: the peak parameters segments are appended under, set by
            :meth:`load`.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.unusable: str | None = None
        self.spec: str | None = None
        self._segments = self._load_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> list[dict]:
        try:
            text = self.manifest_path.read_text()
        except FileNotFoundError:
            return []
        except OSError:
            self.unusable = "is unreadable"
            return []
        try:
            data = json.loads(text)
        except ValueError:
            self.unusable = "is unreadable"
            return []
        if not isinstance(data, dict):
            self.unusable = "is unreadable"
            return []
        version = data.get("version")
        if version != MANIFEST_VERSION:
            self.unusable = f"is version {version}, not {MANIFEST_VERSION}"
            return []
        segments = data.get("segments")
        if not isinstance(segments, list) or not all(
            isinstance(entry, dict) for entry in segments
        ):
            self.unusable = "is unreadable"
            return []
        return segments

    def load(
        self, spec: str
    ) -> tuple[list[bytes], list[np.ndarray], np.ndarray, np.ndarray] | None:
        """Rows of every verified segment journaled under ``spec``, or None.

        Returns ``(keys, outputs, psd_rows, psd)``: ``outputs`` are the
        per-row ``(offsets, rms, peak_frequencies, peak_values,
        peak_counts)``, and ``psd`` holds the PSD of the rows at
        ``psd_rows`` (indices into ``keys``).  Later appends are made
        under ``spec``.  Only segments of the newest matching segment's
        PSD width load: a row of another width has other bytes, so its
        key can never match.  Segments whose payload is missing, torn,
        or fails its digest are skipped — their rows are recomputed.
        None when nothing loads.
        """
        self.spec = spec
        segments = [entry for entry in self._segments if entry.get("spec") == spec]
        if not segments:
            return None
        width = segments[-1].get("width")
        parts = []
        for entry in segments:
            if entry.get("width") != width:
                continue
            try:
                with np.load(self.directory / entry["payload"]) as archive:
                    part = [archive[name] for name in SEGMENT_ARRAYS]
            except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
                continue
            if part[-1].shape[1:] == (width,) and _segment_digest(part) == entry.get(
                "digest"
            ):
                parts.append(part)
        if not parts:
            return None
        keys, *outputs, psd_index, psd = (
            np.concatenate(arrays) for arrays in zip(*parts)
        )
        # psd_index counts from each segment's first row.
        starts = np.cumsum([0] + [len(part[0]) for part in parts[:-1]])
        psd_rows = psd_index + np.repeat(starts, [len(part[-2]) for part in parts])
        return [row.tobytes() for row in keys], outputs, psd_rows, psd

    def append(
        self,
        keys: list[bytes],
        outputs,
        psd_index: np.ndarray,
        psd: np.ndarray,
    ) -> None:
        """Journal one segment (payload first, then manifest).

        ``keys`` are the rows' memo keys (:func:`~repro.runtime.cache.row_key`
        bytes, all of one length), stored as one ``uint8`` row each;
        ``outputs`` their ``(offsets, rms, peak_frequencies,
        peak_values, peak_counts)``; ``psd`` the PSD rows of the rows at
        ``psd_index`` (positions within the segment).  The payload is
        written straight into its temp file.  Ordering matters for
        crash-safety: the payload reaches disk before the manifest
        references it, so the manifest never points at a file that may
        not exist.
        """
        key_rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
        arrays = [
            key_rows,
            *map(np.ascontiguousarray, outputs),
            np.asarray(psd_index, dtype=np.int64),
            np.ascontiguousarray(psd),
        ]
        name = f"segment-{len(self._segments):05d}.npz"
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self.directory / name,
            lambda fh: np.savez(fh, **dict(zip(SEGMENT_ARRAYS, arrays))),
        )
        self._segments.append(
            {
                "payload": name,
                "width": int(psd.shape[1]),
                "spec": self.spec,
                "digest": _segment_digest(arrays),
            }
        )
        manifest = {"version": MANIFEST_VERSION, "segments": self._segments}
        text = json.dumps(manifest, indent=1, sort_keys=True).encode()
        _atomic_write(self.manifest_path, lambda fh: fh.write(text))
