"""Content digests and the lifetime-model fit memo.

* :func:`row_key` / :func:`row_digests` key
  :class:`~repro.core.pipeline.AnalysisPipeline`'s row memo, which holds
  each row's transform outputs and harmonic peaks; the measurement store
  writes each stored row's key once, at ingest;
* :func:`array_digest` keys model fits and verifies journal segments;
* :class:`ModelFitCache` memoizes recursive-RANSAC fits for the
  walk-forward backtest.

Keys are SHA-1 digests of raw float32 or float64 bytes, with the dtype
in the key — content-addressed, so two inputs that hash equal *are*
equal work and no entry can go stale.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np


def as_float(arr) -> np.ndarray:
    """``arr`` as a float32 or float64 array, not copied if already one.

    Every other dtype is cast to float64.  Stored measurements arrive
    as float32 and stay so until a transform tile upcasts them.
    """
    data = np.asarray(arr)
    if data.dtype in (np.float32, np.float64):
        return data
    return data.astype(np.float64)


def array_digest(arr: np.ndarray) -> bytes:
    """Content digest of an array's float bytes (shape and dtype included).

    Float32 and float64 arrays hash their own bytes, so a float32 chunk
    is keyed without a float64 copy; other dtypes hash as float64.
    """
    data = np.ascontiguousarray(as_float(arr))
    digest = hashlib.sha1(repr((data.shape, data.dtype.str)).encode())
    # memoryview feeds the hash without materializing a bytes copy.
    digest.update(data.data)
    return digest.digest()


def row_key(dtype: str, data) -> bytes:
    """The row memo's key: dtype tag + SHA-1 of one row's bytes.

    ``data`` is the row's contiguous bytes in ``dtype`` (a numpy dtype
    string such as ``"<f4"``).  The measurement store keys a stored
    BLOB, the raw ``"<f4"`` bytes, the same way at ingest.
    """
    return dtype.encode() + hashlib.sha1(data).digest()


def row_digests(blocks: np.ndarray) -> list[bytes]:
    """:func:`row_key` of each row, in row order.

    The key of the pipeline's transform row memo.  Each row hashes in
    the dtype it arrives in, with the dtype in the key, so a float32
    row and a float64 row never share a key and the stored float32 rows
    hash half the bytes of an upcast copy.  Rows of equal digest hold
    equal bytes — hence equal length and equal transform output — so
    no shape prefix is needed.  A key is the row's content, never its
    measurement id: a row rewritten under the same id (a replaced
    upload, injected corruption) gets a new key.
    """
    data = np.ascontiguousarray(blocks)
    return [row_key(data.dtype.str, row) for row in data]


class ModelFitCache:
    """Bounded, thread-safe memo for lifetime-model fits.

    A recursive-RANSAC fit is a pure function of ``(engine config +
    initial RNG state, fit data)`` — :meth:`RecursiveRANSAC.config_key
    <repro.core.ransac.RecursiveRANSAC.config_key>` captures the former
    and a content digest of the ``(x, z)`` arrays the latter.  The
    walk-forward backtest exploits this: consecutive refresh days whose
    prefix windows contain the same valid points (no new measurements
    landed in between) hash equal and reuse the fitted models outright.

    Values are lists of frozen :class:`~repro.core.ransac.LineModel`
    instances; callers must treat them (and their index arrays) as
    immutable.  Entries beyond ``max_entries`` evict FIFO.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    @staticmethod
    def fit_key(config_key: tuple, x: np.ndarray, z: np.ndarray) -> tuple:
        """Content-addressed key for a fit: engine config + data digests."""
        return ("model-fit", config_key, array_digest(x), array_digest(z))

    def models(self, key: tuple, compute) -> list:
        """Cached model list for ``key``; ``compute()`` fills a miss."""
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
            self.misses += 1
        models = compute()
        with self._lock:
            self._store[key] = models
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return models


_DEFAULT_MODEL_FIT_CACHE = ModelFitCache()


def default_model_fit_cache() -> ModelFitCache:
    """The process-wide lifetime-model fit memo (backtests share it)."""
    return _DEFAULT_MODEL_FIT_CACHE
