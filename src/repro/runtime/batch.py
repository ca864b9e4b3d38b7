"""Batched transform kernel of the Fig. 7 analytical workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` runs its transformation
layer through :func:`transform_rows`: each row tile is upcast once,
centred and reduced for its offsets and RMS, pushed through one batched
orthonormal DCT-II (:func:`~repro.core._pocketfft.dct_ortho`, scipy's
pocketfft kernel without the ``scipy.fft`` import), and its PSD rows go
straight into harmonic-peak extraction while they are still in cache.
Only the PSD rows a caller asks for leave the tile.  Tiles spread over
the executor's threads and are optionally journaled per segment.

Every kernel is bit-identical to the scalar per-row oracle in
``tests/reference/``; DESIGN.md states that contract at the pipeline
boundary.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core._pocketfft import dct_ortho
from repro.runtime.fleet import FleetExecutor

#: Most rows per journal segment (see :mod:`repro.runtime.checkpoint`).
#: A segment holds each row's offsets, RMS and packed peaks (~360 bytes
#: a row at 20 peaks) plus the PSD rows the caller kept; a crash loses
#: at most one segment of work.
DEFAULT_CHUNK_ROWS = 8192

#: Rows per compute tile.  The segment is the journal's unit; the tile
#: is the unit of actual compute: upcast, centring, DCT, PSD and peak
#: extraction all run on one tile's rows while they are in cache.  Every
#: op is row-local, so tile boundaries cannot change a single float.
#: Small tiles keep each thread's scratch (K-major block, DCT scratch,
#: PSD rows, peak temporaries) to a few MiB that the preallocated
#: buffers recycle.  Chosen from paired cold ``repro analyze`` runs on
#: the 8,640-row fleet (2 CPUs): peak RSS 294 / 299 / 309 / 330 / 373 MB
#: at 32 / 64 / 128 / 256 / 512 rows, wall time equal within noise from
#: 64 rows up and slower at 32 (docs/PERFORMANCE.md).
TRANSFORM_TILE_ROWS = 64


def _transform_tiled(
    blocks: np.ndarray,
    lo: int,
    hi: int,
    outputs: tuple[np.ndarray, ...],
    psd: np.ndarray,
    keep: np.ndarray,
    kept_before: np.ndarray,
    extract: Callable[[np.ndarray], tuple[np.ndarray, ...]],
) -> None:
    """Compute every per-row output of rows ``[lo, hi)`` tile by tile.

    Each tile is copied into a reused K-major ``(K, m, 3)`` float64
    buffer — the one place a float32 block is upcast, exactly — so the
    mean, the centring and the square-sum run sequentially over ``K``
    with a contiguous ``m·3`` inner loop, in the oracle's order.  One
    transpose feeds the ``(m, 3, K)`` DCT scratch, which
    :func:`~repro.core._pocketfft.dct_ortho` overwrites; the PSD rows are
    ``c_x + c_y + c_z`` and go straight to ``extract``.  Writes offsets,
    RMS and peaks (``outputs``) of every row, and the PSD of the rows
    ``keep`` marks at their kept position (``kept_before``).

    Raises:
        ValueError: if any sample in ``[lo, hi)`` is non-finite.
    """
    offsets, rms, *peaks = outputs
    k = blocks.shape[1]
    tile = TRANSFORM_TILE_ROWS
    rows = min(tile, max(hi - lo, 1))
    flat = np.empty(k * rows * 3)
    work = np.empty((rows, 3, k))
    power = np.empty((rows, k))
    for tlo in range(lo, hi, tile):
        thi = min(tlo + tile, hi)
        m = thi - tlo
        chunk = flat[: k * m * 3].reshape(k, m, 3)
        chunk[...] = blocks[tlo:thi].transpose(1, 0, 2)
        if not np.isfinite(chunk).all():
            raise ValueError("measurement contains non-finite samples")
        means = chunk.mean(axis=0)
        chunk -= means
        # The DCT runs along the K samples, so it reads the centred
        # block from the contiguous (m, 3, K) scratch and may destroy
        # it in place; the block itself is then squared in place.
        transposed = work[:m]
        transposed[...] = chunk.transpose(1, 2, 0)
        np.square(chunk, out=chunk)
        per_axis_sq = chunk.sum(axis=0)
        per_axis_sq /= k
        offsets[tlo:thi] = means
        rms[tlo:thi] = np.sqrt(per_axis_sq.sum(axis=1))
        coeffs = dct_ortho(transposed, axis=2, overwrite_x=True)
        # Elementwise identical to (coeffs**2 / k), and the axis sum in
        # the oracle's left-to-right order.
        np.square(coeffs, out=coeffs)
        coeffs /= k
        rows_psd = power[:m]
        np.add(coeffs[:, 0], coeffs[:, 1], out=rows_psd)
        rows_psd += coeffs[:, 2]
        for out, values in zip(peaks, extract(rows_psd)):
            out[tlo:thi] = values
        psd[kept_before[tlo] : kept_before[thi]] = rows_psd[keep[tlo:thi]]


def run_tiles(
    fn: Callable[[int, int], None], lo: int, hi: int, workers: int
) -> None:
    """Call ``fn(start, stop)`` over rows ``[lo, hi)`` on ``workers`` threads.

    The rows split into ``min(workers, tiles)`` contiguous ranges
    aligned to :data:`TRANSFORM_TILE_ROWS`, one per thread; one worker
    or a single tile is the plain call ``fn(lo, hi)``.  ``fn`` must be
    row-local and write only its own rows, so the result is
    bit-identical whichever thread ran a range.  An exception raises as
    in the serial call, earliest range first.
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
    extract: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    num_peaks: int,
    keep: np.ndarray,
    journal=None,
    keys: list[bytes] | None = None,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Transform every row of ``blocks`` into its per-row outputs.

    ``blocks`` may be float32 or float64; tiles upcast as they go.
    ``extract`` maps a tile's ``(m, K)`` PSD rows to their packed
    harmonic peaks ``(frequencies, values, counts)``, ``num_peaks``
    wide.  Returns ``(outputs, psd)``: ``outputs`` is ``(offsets, rms,
    peak_frequencies, peak_values, peak_counts)`` of every row, and
    ``psd`` holds the PSD rows the boolean mask ``keep`` marks, in row
    order.

    The tiles spread over ``executor.max_workers`` plain threads
    (``0``/``1`` is serial) via :func:`run_tiles`.  The threads bypass
    the executor itself, so its fault injection, supervision tally and
    ``last_backend`` never see transform tiles.  Without a journal this
    is one :func:`run_tiles` call.  With a
    :class:`~repro.runtime.checkpoint.RowJournal`, rows run in segments
    of at most :data:`DEFAULT_CHUNK_ROWS`, each appended to the journal
    under its rows' ``keys`` the moment it completes.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    outputs = (
        np.empty((n, 3)),
        np.empty(n),
        np.empty((n, num_peaks)),
        np.empty((n, num_peaks)),
        np.empty(n, dtype=np.intp),
    )
    kept_before = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep, out=kept_before[1:])
    psd = np.empty((int(kept_before[-1]), k))
    workers = max(1, executor.max_workers)

    def transform(lo: int, hi: int) -> None:
        _transform_tiled(blocks, lo, hi, outputs, psd, keep, kept_before, extract)

    if journal is None:
        run_tiles(transform, 0, n, workers)
        return outputs, psd
    for lo in range(0, n, DEFAULT_CHUNK_ROWS):
        hi = min(lo + DEFAULT_CHUNK_ROWS, n)
        run_tiles(transform, lo, hi, workers)
        # Journal each segment the moment it completes, so a crash
        # mid-run resumes from here rather than from scratch.
        journal.append(
            keys[lo:hi],
            [out[lo:hi] for out in outputs],
            np.flatnonzero(keep[lo:hi]),
            psd[kept_before[lo] : kept_before[hi]],
        )
    return outputs, psd


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
