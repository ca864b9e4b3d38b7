"""Batched transform kernel of the Fig. 7 analytical workflow.

:class:`~repro.core.pipeline.AnalysisPipeline` runs its transformation
layer through a :class:`RowTransformer`, fed batch by batch as
retrieval decodes rows (or with a whole in-memory matrix): each row
tile is upcast once, centred and reduced for its offsets and RMS,
pushed through one batched orthonormal DCT-II
(:func:`~repro.core._pocketfft.dct_ortho`, scipy's pocketfft kernel
without the ``scipy.fft`` import), and its PSD rows go straight into
harmonic-peak extraction while they are still in cache.  Only the PSD
rows a caller asks for leave the tile.  Tiles spread over one thread
pool per run and are optionally journaled per segment.

Every kernel is bit-identical to the scalar per-row oracle in
``tests/reference/``; DESIGN.md states that contract at the pipeline
boundary.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.core._pocketfft import dct_ortho

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
    finite: np.ndarray,
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

    A row holding a non-finite sample is flagged False in ``finite``
    and transformed as zeros, so it cannot poison the tile; every op is
    row-local, so the other rows' outputs are unchanged.  Only a tile
    whose means are not all finite — which any NaN or Inf sample makes
    them — pays for the per-row check.
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
        means = chunk.mean(axis=0)
        finite[tlo:thi] = True
        if not np.isfinite(means).all():
            bad = ~np.isfinite(chunk).all(axis=(0, 2))
            finite[tlo:thi] = ~bad
            chunk[:, bad] = 0.0
            means[bad] = 0.0
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


class RowTransformer:
    """Transforms rows batch by batch into per-row outputs, in arrival order.

    :meth:`start` sizes the outputs for at most ``n`` rows of length
    ``k``; each :meth:`put` transforms one batch of rows and writes
    their outputs after the rows of the batches before it:
    :attr:`outputs` is ``(offsets, rms, peak_frequencies, peak_values,
    peak_counts)``, :attr:`finite` flags the rows without a non-finite
    sample, and :attr:`psd` holds, in row order, the PSD of the rows
    whose ``keep`` flag was set.  :attr:`done` rows are written.

    A batch's tiles spread over ``workers`` threads (``0``/``1`` is
    serial) in contiguous ranges aligned to :data:`TRANSFORM_TILE_ROWS`;
    the threads come from one pool, made on first use and shut down by
    :meth:`close`, not one pool per batch.  This is the only thread
    pool: the tiles bypass the in-line
    :class:`~repro.runtime.fleet.FleetExecutor`, so its fault injection
    and supervision tally never see them.  Every op is row-local, so the
    bytes depend on neither the batch boundaries nor the thread that ran
    a range.

    With a :class:`~repro.runtime.checkpoint.RowJournal`, the finite
    rows are appended to it in segments of at most
    :data:`DEFAULT_CHUNK_ROWS` transformed rows, each the moment it
    completes (the last, short one by :meth:`finish`), so a crash
    mid-run resumes from there rather than from scratch.
    """

    def __init__(self, workers: int, num_peaks: int, journal=None):
        self.workers = max(1, workers)
        self.num_peaks = num_peaks
        self.journal = journal
        self._pool: ThreadPoolExecutor | None = None
        self.start(0, 0, 0, None)

    def start(
        self,
        n: int,
        k: int,
        psd_rows: int,
        extract: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None,
    ) -> None:
        """Drop every row so far and size the outputs for ``n`` rows.

        ``psd_rows`` is the expected number of kept PSD rows (the
        buffer grows past it when needed); ``extract`` maps a tile's
        ``(m, k)`` PSD rows to their packed harmonic peaks
        ``(frequencies, values, counts)``, ``num_peaks`` wide.
        """
        width = self.num_peaks
        self.outputs = (
            np.empty((n, 3)),
            np.empty(n),
            np.empty((n, width)),
            np.empty((n, width)),
            np.empty(n, dtype=np.intp),
        )
        self.finite = np.empty(n, dtype=bool)
        self.keep = np.empty(n, dtype=bool)
        self.psd = np.empty((psd_rows, k))
        self.extract = extract
        self.keys: list[bytes] = []
        self.done = self.kept = 0
        self._journaled = self._journaled_kept = 0

    def put(self, blocks: np.ndarray, keep: np.ndarray, keys=None) -> None:
        """Transform ``(m, k, 3)`` float32 or float64 rows.

        ``keep`` flags the rows whose PSD to keep; ``keys`` are the
        rows' memo keys, which a journal needs.
        """
        m = blocks.shape[0]
        lo = 0
        while lo < m:
            hi = m
            if self.journal is not None:
                hi = min(m, lo + DEFAULT_CHUNK_ROWS - (self.done - self._journaled))
                self.keys.extend(keys[lo:hi])
            self._run(blocks[lo:hi], keep[lo:hi])
            if (
                self.journal is not None
                and self.done - self._journaled == DEFAULT_CHUNK_ROWS
            ):
                self._append()
            lo = hi

    def finish(self) -> None:
        """Journal the rows transformed since the last segment."""
        if self.journal is not None and self.done > self._journaled:
            self._append()

    def take_psd(self) -> np.ndarray:
        """Hand over :attr:`psd`, whose first :attr:`kept` rows are the
        kept PSD rows, keeping no reference to it."""
        psd, self.psd = self.psd, np.empty((0, self.psd.shape[1]))
        return psd

    def close(self) -> None:
        """Shut the thread pool down (a later batch makes a new one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _run(self, blocks: np.ndarray, keep: np.ndarray) -> None:
        m = blocks.shape[0]
        base, kbase = self.done, self.kept
        kept_before = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(keep, out=kept_before[1:])
        kept = kbase + int(kept_before[-1])
        if kept > self.psd.shape[0]:
            grown = np.empty((max(kept, 2 * self.psd.shape[0]), self.psd.shape[1]))
            grown[:kbase] = self.psd[:kbase]
            self.psd = grown
        outputs = tuple(out[base : base + m] for out in self.outputs)
        finite = self.finite[base : base + m]
        psd = self.psd[kbase:kept]
        self.keep[base : base + m] = keep

        def transform(lo: int, hi: int) -> None:
            _transform_tiled(
                blocks, lo, hi, outputs, finite, psd, keep, kept_before, self.extract
            )

        tiles = -(-m // TRANSFORM_TILE_ROWS)
        parts = min(self.workers, tiles)
        if parts <= 1:
            transform(0, m)
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(self.workers)
            bounds = [(tiles * i // parts) * TRANSFORM_TILE_ROWS for i in range(parts)]
            bounds.append(m)
            futures = [
                self._pool.submit(transform, start, stop)
                for start, stop in zip(bounds, bounds[1:])
            ]
            wait(futures)
            # An exception raises as in the serial call, earliest range first.
            for future in futures:
                future.result()
        self.done, self.kept = base + m, kept

    def _append(self) -> None:
        """Journal the finite rows since the last segment as one segment."""
        lo, hi = self._journaled, self.done
        keep = self.keep[lo:hi]
        outputs = [out[lo:hi] for out in self.outputs]
        keys = self.keys[lo:hi]
        psd = self.psd[self._journaled_kept : self.kept]
        finite = self.finite[lo:hi]
        if not finite.all():
            outputs = [out[finite] for out in outputs]
            keys = [key for key, ok in zip(keys, finite.tolist()) if ok]
            psd = psd[finite[keep]]
            keep = keep[finite]
        if keys:
            self.journal.append(keys, outputs, np.flatnonzero(keep), psd)
        self._journaled, self._journaled_kept = hi, self.kept
