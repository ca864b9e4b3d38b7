"""The row memo on disk: a crash-safe journal of transformed rows.

:class:`~repro.core.pipeline.AnalysisPipeline` memoizes each row's
transform outputs under the row's key (:func:`~repro.runtime.cache.row_key`,
the digest the measurement store writes at ingest).  :class:`RowJournal`
keeps that memo on disk as append-only *segments*: every batch of rows
the pipeline transforms — at most
:data:`~repro.runtime.batch.DEFAULT_CHUNK_ROWS` rows — is written as one
``.npz`` payload of ``(keys, offsets, rms, psd)`` plus an entry in a
JSON manifest.  A pipeline built over the journal seeds its row memo
from it, so a run interrupted by a crash, ``SIGTERM`` or ``SIGINT`` — or
a second run over an unchanged window — transforms only the rows no
segment holds.  Resume is *bit-identical*:

* rows are recalled by key, and equal keys mean equal row bytes, so a
  segment can only serve the bytes that produced it;
* each entry carries a digest over the segment's keys and outputs that
  is re-verified on load, so a torn or bit-rotted segment is recomputed
  instead of trusted;
* every write is atomic (write to a temp file, ``fsync``, then
  ``os.replace``), payload before manifest, so the manifest never
  references a half-written payload and a crash mid-write leaves the
  previous state intact.

Format (``manifest.json``, version 2)::

    {
      "version": 2,
      "segments": [
        {"payload": "segment-00000.npz", "width": 1024,
         "digest": "<sha1 hex over keys|offsets|rms|psd>"},
        ...
      ]
    }

A manifest of any other version (the version-1 chunk journal of older
builds) is ignored and replaced on the first append.  Segments are never
compacted: the journal grows by at least one segment per run that
transforms rows.  See ``docs/RELIABILITY.md`` for the recovery runbook.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.runtime.cache import array_digest

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2
SEGMENT_ARRAYS = ("keys", "offsets", "rms", "psd")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + rename.

    After ``os.replace`` the file is either fully the old content or
    fully the new content; the directory entry is fsynced best-effort so
    the rename itself survives power loss on journaling filesystems.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
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


def _segment_digest(
    keys: np.ndarray, offsets: np.ndarray, rms: np.ndarray, psd: np.ndarray
) -> str:
    digest = hashlib.sha1(array_digest(keys))
    digest.update(array_digest(offsets))
    digest.update(array_digest(rms))
    digest.update(array_digest(psd))
    return digest.hexdigest()


class RowJournal:
    """Append-only segments of transformed rows in one directory.

    Attributes:
        directory: journal directory (created on first append).
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self._segments = self._load_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> list[dict]:
        try:
            data = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return []
        if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
            return []
        segments = data.get("segments")
        if not isinstance(segments, list) or not all(
            isinstance(entry, dict) for entry in segments
        ):
            return []
        return segments

    def load(self) -> tuple[list[bytes], np.ndarray, np.ndarray, np.ndarray] | None:
        """``(keys, offsets, rms, psd)`` of every verified segment, or None.

        Only segments of the newest segment's PSD width load: a row of
        another width has other bytes, so its key can never match.
        Segments whose payload is missing, torn, or fails its digest are
        skipped — their rows are recomputed.  None when nothing loads.
        """
        if not self._segments:
            return None
        width = self._segments[-1].get("width")
        parts = []
        for entry in self._segments:
            if entry.get("width") != width:
                continue
            try:
                with np.load(self.directory / entry["payload"]) as archive:
                    part = tuple(archive[name] for name in SEGMENT_ARRAYS)
            except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
                continue
            if part[3].shape[1:] == (width,) and _segment_digest(*part) == entry.get(
                "digest"
            ):
                parts.append(part)
        if not parts:
            return None
        keys, offsets, rms, psd = (np.concatenate(arrays) for arrays in zip(*parts))
        return [row.tobytes() for row in keys], offsets, rms, psd

    def append(
        self,
        keys: list[bytes],
        offsets: np.ndarray,
        rms: np.ndarray,
        psd: np.ndarray,
    ) -> None:
        """Journal one segment (payload first, then manifest).

        ``keys`` are the rows' memo keys (:func:`~repro.runtime.cache.row_key`
        bytes, all of one length), stored as one ``uint8`` row each.
        Ordering matters for crash-safety: the payload reaches disk
        before the manifest references it, so the manifest never points
        at a file that may not exist.
        """
        key_rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
        arrays = (key_rows, *map(np.ascontiguousarray, (offsets, rms, psd)))
        name = f"segment-{len(self._segments):05d}.npz"
        buffer = io.BytesIO()
        np.savez(buffer, **dict(zip(SEGMENT_ARRAYS, arrays)))
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(self.directory / name, buffer.getvalue())
        self._segments.append(
            {
                "payload": name,
                "width": int(psd.shape[1]),
                "digest": _segment_digest(*arrays),
            }
        )
        manifest = {"version": MANIFEST_VERSION, "segments": self._segments}
        _atomic_write_bytes(
            self.manifest_path, json.dumps(manifest, indent=1, sort_keys=True).encode()
        )
