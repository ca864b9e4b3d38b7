"""Batched transform kernel of the Fig. 7 analytical workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` runs its transformation
layer through :func:`transform_rows`: one batched DCT-II over
``(n, K, 3)`` plus broadcast mean-offset calibration and a vectorized
RMS reduction, computed in row tiles spread over the executor's threads
and optionally journaled per chunk.  Feature extraction runs through the
batched kernels of :mod:`repro.core.peaks` and :mod:`repro.core.distance`.

Every kernel is bit-identical to the scalar per-row oracle in
``tests/reference/``; DESIGN.md states that contract at the pipeline
boundary.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.fft import dct

from repro.runtime.cache import array_digest
from repro.runtime.fleet import FleetExecutor

#: Rows per transform chunk.  8192 blocks of (1024, 3) float64 is ~192 MiB
#: of input per chunk — enough to amortize the DCT call, small enough to
#: keep peak memory bounded on fleet-scale matrices.
DEFAULT_CHUNK_ROWS = 8192

#: Rows per transform compute tile *within* a chunk.  The chunk is the
#: checkpoint journal's unit; the tile is the unit of actual compute.
#: Small tiles keep the working set (normalized block, transposed DCT
#: scratch) inside a few MiB that the two preallocated buffers recycle,
#: instead of faulting in hundreds of MiB of fresh temporaries per
#: chunk — measured ~4x faster on the 8,640-row fleet matrix with
#: bit-identical output (the DCT and every reduction are row-local, so
#: tile boundaries cannot change a single float).
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

    Writes the mean offsets, RMS and PSD rows in place.  Every tile runs
    this exact op sequence, so outputs are bit-identical regardless of
    which thread (or which chunking) executed a row.

    Raises:
        ValueError: if any sample in ``[lo, hi)`` is non-finite.
    """
    k = blocks.shape[1]
    tile = TRANSFORM_TILE_ROWS
    norm = np.empty((min(tile, max(hi - lo, 1)), k, 3))
    work = np.empty((norm.shape[0], 3, k))
    for tlo in range(lo, hi, tile):
        thi = min(tlo + tile, hi)
        m = thi - tlo
        chunk = blocks[tlo:thi]
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


def _transform_threaded(
    pool: ThreadPoolExecutor,
    workers: int,
    blocks: np.ndarray,
    lo: int,
    hi: int,
    offsets: np.ndarray,
    rms: np.ndarray,
    psd: np.ndarray,
) -> None:
    """Run :func:`_transform_tiled` on rows ``[lo, hi)`` across ``pool``.

    The rows split into ``min(workers, tiles)`` tile-aligned contiguous
    ranges, one per pool thread; one worker or a single tile is the
    plain serial call.  Pocketfft's DCT and numpy's reductions release
    the GIL, and every op is row-local, so the outputs are bit-identical
    whichever thread computed a tile.  A non-finite row raises the same
    ``ValueError`` as the serial call, earliest range first.
    """
    tiles = -(-(hi - lo) // TRANSFORM_TILE_ROWS)
    parts = min(workers, tiles)
    if parts <= 1:
        _transform_tiled(blocks, lo, hi, offsets, rms, psd)
        return
    bounds = [lo + (tiles * i // parts) * TRANSFORM_TILE_ROWS for i in range(parts)]
    bounds.append(hi)
    futures = [
        pool.submit(_transform_tiled, blocks, start, stop, offsets, rms, psd)
        for start, stop in zip(bounds, bounds[1:])
    ]
    for future in futures:
        future.result()


def transform_rows(
    blocks: np.ndarray,
    chunk_rows: int,
    executor: FleetExecutor,
    checkpoint=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Transform every row of ``blocks`` chunk by chunk.

    With a checkpoint armed, each chunk is first looked up in the
    journal by its input digest and every computed chunk is journaled
    the moment it completes.  Each missed chunk's tiles spread over
    ``executor.max_workers`` plain threads (``0``/``1`` is serial).  The
    threads bypass the executor itself, so its fault injection,
    supervision tally and ``last_backend`` never see transform tiles.
    Returns ``(offsets, rms, psd, computed)``, where ``computed`` counts
    the rows actually transformed rather than recalled from the journal.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    offsets = np.empty((n, 3))
    rms = np.empty(n)
    psd = np.empty((n, k))
    computed = 0
    # The pool starts threads only on first submit, so a serial run pays
    # nothing for it.
    workers = max(1, executor.max_workers)
    with ThreadPoolExecutor(workers) as pool:
        for index, lo in enumerate(range(0, n, chunk_rows)):
            hi = min(lo + chunk_rows, n)
            chunk_key = None
            if checkpoint is not None:
                chunk_key = array_digest(blocks[lo:hi])
                journaled = checkpoint.load_chunk(index, chunk_key)
                if journaled is not None:
                    offsets[lo:hi], rms[lo:hi], psd[lo:hi] = journaled
                    continue
            _transform_threaded(pool, workers, blocks, lo, hi, offsets, rms, psd)
            computed += hi - lo
            # Journal each chunk the moment it completes, so a crash
            # mid-run resumes from here rather than from scratch.
            if checkpoint is not None:
                checkpoint.record_chunk(
                    index, lo, hi, chunk_key, offsets[lo:hi], rms[lo:hi], psd[lo:hi]
                )
    return offsets, rms, psd, computed


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
        block is finite.
    """
    arr = np.asarray(blocks, dtype=np.float64)
    if arr.ndim < 2:
        return np.isfinite(arr)
    axes = tuple(range(1, arr.ndim))
    return np.isfinite(arr).all(axis=axes)
