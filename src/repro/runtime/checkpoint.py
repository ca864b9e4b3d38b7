"""Journaled transform checkpoints: crash-safe, resumable batch runs.

A long fleet-scale run spends most of its wall-clock in the transform
layer, chunk by chunk.  :class:`CheckpointManager` journals each
completed chunk to disk — a content-addressed ``.npz`` payload plus an
entry in a JSON *run manifest* — so a run interrupted by a crash,
``SIGTERM`` or ``SIGINT`` resumes from the last completed chunk instead
of restarting from scratch.  Resume is *idempotent and bit-identical*:

* chunks are addressed by their input digest
  (:func:`~repro.runtime.cache.array_digest` over the raw measurement
  bytes in their stored dtype, float32 from the database), so a resumed
  run only reuses a payload when the input bytes are exactly the ones
  that produced it;
* payloads carry an output digest that is re-verified on load, so a
  torn or bit-rotted payload is recomputed instead of trusted;
* every write is atomic (write to a temp file, ``fsync``, then
  ``os.replace``), so the manifest never references a half-written
  payload and a crash mid-write leaves the previous state intact.

The manifest also keeps a *superseded* set: when a chunk slot is
re-recorded with different input bytes, the old input digest is added to
it (and re-recording a digest removes it again).  It is a record for the
operator only — the pipeline's in-memory row memo is keyed by row
content, so no warm hit needs revalidating against it.

Format (``manifest.json``, version 1)::

    {
      "version": 1,
      "run_key": "transform-v2",
      "chunks": {
        "0": {"lo": 0, "hi": 8192,
               "input_digest": "<sha1 hex of shape, dtype, chunk bytes>",
               "payload": "chunk-00000.npz",
               "output_digest": "<sha1 hex over offsets|rms|psd>"},
        ...
      },
      "superseded": ["<sha1 hex>", ...]
    }

A checkpoint directory belongs to one logical run configuration; the
``run_key`` pins it (a manifest written under a different key is ignored
and overwritten on the first record).  ``transform-v2`` keys chunks by
their stored-dtype bytes; a ``transform-v1`` journal, keyed by float64
upcast bytes, is such a different key and starts a fresh run.  See ``docs/RELIABILITY.md`` for
the recovery runbook.
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
MANIFEST_VERSION = 1


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


class CheckpointManager:
    """Journaled manifest of completed transform chunks for one run.

    Attributes:
        directory: checkpoint directory (created on first use).
        run_key: configuration fingerprint; a manifest recorded under a
            different key is ignored (fresh start) rather than trusted.
        hits / misses: chunk-level recall counters for profiling.
    """

    def __init__(self, directory: str | os.PathLike, run_key: str = "transform-v2"):
        self.directory = Path(directory)
        self.run_key = str(run_key)
        self.hits = 0
        self.misses = 0
        self._manifest = self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest I/O.
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _fresh_manifest(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "run_key": self.run_key,
            "chunks": {},
            "superseded": [],
        }

    def _load_manifest(self) -> dict:
        try:
            data = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return self._fresh_manifest()
        if (
            not isinstance(data, dict)
            or data.get("version") != MANIFEST_VERSION
            or data.get("run_key") != self.run_key
            or not isinstance(data.get("chunks"), dict)
            or not isinstance(data.get("superseded"), list)
        ):
            return self._fresh_manifest()
        return data

    def _write_manifest(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self._manifest, indent=1, sort_keys=True).encode()
        _atomic_write_bytes(self.manifest_path, payload)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        """Completed chunks currently journaled."""
        return len(self._manifest["chunks"])

    @staticmethod
    def _output_digest(
        offsets: np.ndarray, rms: np.ndarray, psd: np.ndarray
    ) -> str:
        digest = hashlib.sha1(array_digest(offsets))
        digest.update(array_digest(rms))
        digest.update(array_digest(psd))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Chunk recall / journal.
    # ------------------------------------------------------------------
    def load_chunk(
        self, index: int, input_digest: bytes
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Journaled ``(offsets, rms, psd)`` for a chunk, or ``None``.

        Returns ``None`` (self-healing: the caller recomputes) when the
        slot is empty, was recorded for different input bytes, or its
        payload is missing, torn, or fails output-digest verification.
        """
        entry = self._manifest["chunks"].get(str(index))
        if entry is None or entry.get("input_digest") != input_digest.hex():
            self.misses += 1
            return None
        path = self.directory / entry["payload"]
        try:
            with np.load(path) as archive:
                offsets = archive["offsets"]
                rms = archive["rms"]
                psd = archive["psd"]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            self.misses += 1
            return None
        if self._output_digest(offsets, rms, psd) != entry.get("output_digest"):
            self.misses += 1
            return None
        self.hits += 1
        return offsets, rms, psd

    def record_chunk(
        self,
        index: int,
        lo: int,
        hi: int,
        input_digest: bytes,
        offsets: np.ndarray,
        rms: np.ndarray,
        psd: np.ndarray,
    ) -> None:
        """Journal one completed chunk (payload first, then manifest).

        Ordering matters for crash-safety: the payload reaches disk
        before the manifest references it, so the manifest never points
        at a file that may not exist.
        """
        hexdigest = input_digest.hex()
        chunks = self._manifest["chunks"]
        old = chunks.get(str(index))
        if old is not None and old.get("input_digest") != hexdigest:
            superseded = set(self._manifest["superseded"])
            superseded.add(old["input_digest"])
            superseded.discard(hexdigest)
            self._manifest["superseded"] = sorted(superseded)
        elif hexdigest in self._manifest["superseded"]:
            self._manifest["superseded"] = sorted(
                set(self._manifest["superseded"]) - {hexdigest}
            )
        payload_name = f"chunk-{index:05d}.npz"
        buffer = io.BytesIO()
        np.savez(
            buffer,
            offsets=np.ascontiguousarray(offsets),
            rms=np.ascontiguousarray(rms),
            psd=np.ascontiguousarray(psd),
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(self.directory / payload_name, buffer.getvalue())
        chunks[str(index)] = {
            "lo": int(lo),
            "hi": int(hi),
            "input_digest": hexdigest,
            "payload": payload_name,
            "output_digest": self._output_digest(offsets, rms, psd),
        }
        self._write_manifest()

    def describe(self) -> str:
        """One-line summary for CLI / log output."""
        return (
            f"checkpoint {self.directory}: {self.chunk_count} chunk(s) journaled, "
            f"{len(self._manifest['superseded'])} superseded digest(s)"
        )
