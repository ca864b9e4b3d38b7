"""Batched transform kernel of the Fig. 7 analytical workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` runs its transformation
layer through :func:`transform_rows`: one batched DCT-II over
``(n, K, 3)`` plus broadcast mean-offset calibration and a vectorized
RMS reduction, computed in row tiles spread over the executor's threads
and optionally journaled per segment.  Feature extraction runs through the
batched kernels of :mod:`repro.core.peaks` and :mod:`repro.core.distance`.

Every kernel is bit-identical to the scalar per-row oracle in
``tests/reference/``; DESIGN.md states that contract at the pipeline
boundary.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.fft import dct

from repro.runtime.fleet import FleetExecutor

#: Most rows per journal segment (see :mod:`repro.runtime.checkpoint`).
#: 8192 rows of (1024, 3) samples are ~64 MiB of PSD output per
#: segment; a crash loses at most one segment of work.
DEFAULT_CHUNK_ROWS = 8192

#: Rows per compute tile.  The segment is the journal's unit; the tile
#: is the unit of actual compute, for the transform and for
#: harmonic-peak extraction alike.  Small tiles keep the working set
#: (float64 block, normalized block, transposed DCT scratch) inside a
#: few MiB that the preallocated buffers recycle, instead of faulting
#: in hundreds of MiB of fresh temporaries per call — measured ~4x
#: faster on the 8,640-row fleet matrix with bit-identical output (the
#: DCT and every reduction are row-local, so tile boundaries cannot
#: change a single float).
TRANSFORM_TILE_ROWS = 256


def _transform_tiled(
    blocks: np.ndarray,
    lo: int,
    hi: int,
    offsets: np.ndarray,
    rms: np.ndarray,
    psd: np.ndarray,
) -> None:
    """Compute transform outputs for rows ``[lo, hi)`` tile by tile.

    Each tile is first copied into a reused float64 tile buffer — the
    one place a float32 block is upcast, exactly — so ``blocks`` can
    stay in its stored precision.  Writes the mean offsets, RMS and PSD
    rows in place.  Every tile runs this exact op sequence, so outputs
    are bit-identical regardless of which thread (or which chunking)
    executed a row.

    Raises:
        ValueError: if any sample in ``[lo, hi)`` is non-finite.
    """
    k = blocks.shape[1]
    tile = TRANSFORM_TILE_ROWS
    rows = min(tile, max(hi - lo, 1))
    block = np.empty((rows, k, 3))
    norm = np.empty((rows, k, 3))
    work = np.empty((rows, 3, k))
    for tlo in range(lo, hi, tile):
        thi = min(tlo + tile, hi)
        m = thi - tlo
        chunk = block[:m]
        chunk[...] = blocks[tlo:thi]
        if not np.all(np.isfinite(chunk)):
            raise ValueError("measurement contains non-finite samples")
        means = chunk.mean(axis=1)
        normalized = norm[:m]
        np.subtract(chunk, means[:, None, :], out=normalized)
        per_axis_sq = np.square(normalized).sum(axis=1)
        per_axis_sq /= k
        # The DCT and the PSD reduction both run along the K samples, so
        # the (m, 3, K) contiguous scratch keeps every hot inner loop on
        # unit stride; the DCT output is bit-identical across layouts
        # and may destroy the scratch in place.
        transposed = work[:m]
        transposed[...] = normalized.transpose(0, 2, 1)
        coeffs = dct(transposed, type=2, norm="ortho", axis=2, overwrite_x=True)
        offsets[tlo:thi] = means
        rms[tlo:thi] = np.sqrt(per_axis_sq.sum(axis=1))
        # Square and scale in place (coeffs is ours), then reduce the
        # axis dimension; elementwise identical to (coeffs**2 / k).
        np.square(coeffs, out=coeffs)
        coeffs /= k
        psd[tlo:thi] = coeffs.sum(axis=1)


def run_tiles(
    fn: Callable[[int, int], None], lo: int, hi: int, workers: int
) -> None:
    """Call ``fn(start, stop)`` over rows ``[lo, hi)`` on ``workers`` threads.

    The rows split into ``min(workers, tiles)`` contiguous ranges
    aligned to :data:`TRANSFORM_TILE_ROWS`, one per thread; one worker
    or a single tile is the plain call ``fn(lo, hi)``.  ``fn`` must be
    row-local and write only its own rows, so the result is
    bit-identical whichever thread ran a range.  An exception raises as
    in the serial call, earliest range first.  The transform and the
    harmonic-peak extraction both run through here.
    """
    tiles = -(-(hi - lo) // TRANSFORM_TILE_ROWS)
    parts = min(workers, tiles)
    if parts <= 1:
        fn(lo, hi)
        return
    bounds = [lo + (tiles * i // parts) * TRANSFORM_TILE_ROWS for i in range(parts)]
    bounds.append(hi)
    with ThreadPoolExecutor(parts) as pool:
        futures = [
            pool.submit(fn, start, stop) for start, stop in zip(bounds, bounds[1:])
        ]
        for future in futures:
            future.result()


def transform_rows(
    blocks: np.ndarray,
    executor: FleetExecutor,
    journal=None,
    keys: list[bytes] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transform every row of ``blocks`` into ``(offsets, rms, psd)``.

    ``blocks`` may be float32 or float64; tiles upcast as they go.  The
    tiles spread over ``executor.max_workers`` plain threads (``0``/``1``
    is serial) via :func:`run_tiles`.  The threads bypass the executor
    itself, so its fault injection, supervision tally and
    ``last_backend`` never see transform tiles.  Without a journal this
    is one :func:`run_tiles` call.  With a
    :class:`~repro.runtime.checkpoint.RowJournal`, rows run in segments
    of at most :data:`DEFAULT_CHUNK_ROWS`, each appended to the journal
    under its rows' ``keys`` the moment it completes.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    offsets = np.empty((n, 3))
    rms = np.empty(n)
    psd = np.empty((n, k))
    workers = max(1, executor.max_workers)

    def transform(lo: int, hi: int) -> None:
        _transform_tiled(blocks, lo, hi, offsets, rms, psd)

    if journal is None:
        run_tiles(transform, 0, n, workers)
        return offsets, rms, psd
    for lo in range(0, n, DEFAULT_CHUNK_ROWS):
        hi = min(lo + DEFAULT_CHUNK_ROWS, n)
        run_tiles(transform, lo, hi, workers)
        # Journal each segment the moment it completes, so a crash
        # mid-run resumes from here rather than from scratch.
        journal.append(keys[lo:hi], offsets[lo:hi], rms[lo:hi], psd[lo:hi])
    return offsets, rms, psd


def finite_block_mask(blocks: np.ndarray) -> np.ndarray:
    """Boolean mask of measurement blocks that are entirely finite.

    The transform stage refuses non-finite input (a NaN row would poison
    the vectorized DCT), so the engine quarantines offending rows up
    front using this mask instead of failing the whole fleet run.

    Args:
        blocks: stacked measurement matrix, shape ``(N, K, 3)`` (or any
            ``(N, ...)`` array — all trailing axes are reduced).

    Returns:
        Shape ``(N,)`` boolean array; ``True`` where every sample of the
        block is finite.  The input is not cast: ``isfinite`` on the
        stored float32 samples gives the same mask as on their float64
        upcast, without a float64 copy of the whole matrix.
    """
    arr = np.asarray(blocks)
    if arr.ndim < 2:
        return np.isfinite(arr)
    axes = tuple(range(1, arr.ndim))
    return np.isfinite(arr).all(axis=axes)
