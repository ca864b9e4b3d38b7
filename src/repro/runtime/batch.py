"""Batched transform kernel of the Fig. 7 analytical workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` runs its transformation
layer through :func:`transform_rows`: one batched DCT-II over
``(n, K, 3)`` plus broadcast mean-offset calibration and a vectorized
RMS reduction, computed in row tiles spread over the executor's threads,
optionally journaled per chunk and fanned across worker processes
through shared memory.  Feature extraction runs through the batched
kernels of :mod:`repro.core.peaks` and :mod:`repro.core.distance`.

Every kernel is bit-identical to the scalar per-row oracle in
``tests/reference/``; DESIGN.md states that contract at the pipeline
boundary.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
from scipy.fft import dct

from repro.runtime.cache import array_digest
from repro.runtime.fleet import FleetExecutor
from repro.runtime.shm import SharedArray, SharedArraySpec, attached_view

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

    Writes the mean offsets, RMS and PSD rows in place.  Both the
    in-process chunk loop and the shared-memory worker run this exact
    function, so outputs are bit-identical regardless of which backend
    (or which chunking) executed a row.

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


def _transform_chunk_in_process(
    payload: tuple[SharedArraySpec, SharedArraySpec, SharedArraySpec, SharedArraySpec, int, int],
) -> None:
    """Worker body of the process-parallel transform.

    Attaches to the shared input matrix and the three shared output
    buffers, computes one row chunk with the exact op sequence of the
    in-process chunk loop (so outputs are bit-identical regardless of
    which process ran the chunk), and writes only its ``[lo, hi)`` slice.
    """
    in_spec, off_spec, rms_spec, psd_spec, lo, hi = payload
    with attached_view(in_spec) as blocks, attached_view(
        off_spec, writable=True
    ) as offsets, attached_view(rms_spec, writable=True) as rms, attached_view(
        psd_spec, writable=True
    ) as psd:
        _transform_tiled(blocks, lo, hi, offsets, rms, psd)


def transform_rows(
    blocks: np.ndarray,
    chunk_rows: int,
    executor: FleetExecutor,
    checkpoint=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Transform every row of ``blocks`` chunk by chunk.

    With a checkpoint armed, each chunk is first looked up in the
    journal by its input digest and every computed chunk is journaled
    the moment it completes.  Missed chunks fan out across worker
    processes when the executor's process backend can pay off; otherwise
    each chunk's tiles spread over ``executor.max_workers`` plain threads
    (``0``/``1`` is serial).  The threads bypass the executor itself, so
    its fault injection, supervision tally and ``last_backend`` never
    see transform tiles.  Returns ``(offsets, rms, psd, computed)``,
    where ``computed`` counts the rows actually transformed rather than
    recalled from the journal.
    """
    n, k = blocks.shape[0], blocks.shape[1]
    offsets = np.empty((n, 3))
    rms = np.empty(n)
    psd = np.empty((n, k))
    missed: list[tuple[int, int, int, bytes | None]] = []
    for index, lo in enumerate(range(0, n, chunk_rows)):
        hi = min(lo + chunk_rows, n)
        chunk_key = None
        if checkpoint is not None:
            chunk_key = array_digest(blocks[lo:hi])
            journaled = checkpoint.load_chunk(index, chunk_key)
            if journaled is not None:
                offsets[lo:hi], rms[lo:hi], psd[lo:hi] = journaled
                continue
        missed.append((index, lo, hi, chunk_key))
    # Process fan-out only when it can pay off: the opt-in process
    # backend, a pool bigger than one, and more than one chunk to spread.
    in_processes = (
        executor.backend == "process" and executor.max_workers > 1 and len(missed) > 1
    )
    if in_processes:
        _transform_chunks_in_processes(
            blocks, missed, executor.max_workers, offsets, rms, psd
        )
    # The pool starts threads only on first submit, so a serial or
    # process-backed run pays nothing for it.
    workers = max(1, executor.max_workers)
    with ThreadPoolExecutor(workers) as pool:
        for index, lo, hi, chunk_key in missed:
            if not in_processes:
                _transform_threaded(pool, workers, blocks, lo, hi, offsets, rms, psd)
            # Journal each chunk the moment it completes, so a crash
            # mid-run resumes from here rather than from scratch.
            if checkpoint is not None:
                checkpoint.record_chunk(
                    index, lo, hi, chunk_key, offsets[lo:hi], rms[lo:hi], psd[lo:hi]
                )
    return offsets, rms, psd, sum(hi - lo for _, lo, hi, _ in missed)


def _transform_chunks_in_processes(
    blocks: np.ndarray,
    missed: list[tuple[int, int, int, bytes | None]],
    max_workers: int,
    offsets: np.ndarray,
    rms: np.ndarray,
    psd: np.ndarray,
) -> None:
    """Fan missed transform chunks across a process pool via shm.

    The measurement matrix is placed in shared memory once (workers
    attach read-only; nothing is pickled per task) and each worker
    writes its chunk's rows into shared output buffers.  Chunk
    boundaries and per-chunk op order match the in-process loop, so
    outputs are bit-identical.  A failing chunk (non-finite samples)
    raises the same ValueError, earliest chunk first.
    """
    with SharedArray(blocks) as shm_in, SharedArray(offsets) as shm_off, SharedArray(
        rms
    ) as shm_rms, SharedArray(psd) as shm_psd:
        payloads = [
            (shm_in.spec, shm_off.spec, shm_rms.spec, shm_psd.spec, lo, hi)
            for _, lo, hi, _key in missed
        ]
        workers = min(max_workers, len(missed))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_transform_chunk_in_process, payloads))
        for _, lo, hi, _key in missed:
            offsets[lo:hi] = shm_off.view[lo:hi]
            rms[lo:hi] = shm_rms.view[lo:hi]
            psd[lo:hi] = shm_psd.view[lo:hi]


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
