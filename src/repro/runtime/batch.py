"""Batched, bit-identical execution of the Fig. 7 analytical workflow.

:class:`BatchPipeline` subclasses the scalar
:class:`~repro.core.pipeline.AnalysisPipeline` and replaces its
per-measurement loops with whole-matrix kernels:

* **transform** — one batched DCT-II over ``(n, K, 3)`` plus broadcast
  mean-offset calibration and a vectorized RMS reduction, instead of
  ``n`` separate FFT calls; rows the previous call already transformed
  are recalled from a content-keyed row memo;
* **feature extraction** — :class:`BatchPeakHarmonicFeature` smooths and
  scans every PSD row at once (``smooth_hann_batch`` + the vectorized
  local-maxima mask) and memoizes exemplar peaks / per-row peak features
  / peak distances in a :class:`~repro.runtime.cache.PeakFeatureCache`;
* **RUL predictions** — the per-pump prediction chains fan out across a
  :class:`~repro.runtime.fleet.FleetExecutor`.

The contract with the scalar path is *bit-identity*, not mere numerical
closeness: the batched kernels are constructed so that every float sees
the same operations in the same order as the scalar reference (the
parity tests in ``tests/runtime/`` enforce element-wise equality and the
determinism tests enforce byte-identical reports).  The scalar pipeline
stays the reference implementation of record; this module is the
production runtime on top of it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np
from scipy.fft import dct

from repro.core.classify import PeakHarmonicFeature, ZoneClassifier
from repro.core.peaks import (
    DEFAULT_MIN_SIGNIFICANCE,
    DEFAULT_NUM_PEAKS,
    DEFAULT_WINDOW_SIZE,
    extract_harmonic_peaks,
    extract_harmonic_peaks_batch,
)
from repro.core.pipeline import AnalysisPipeline, PipelineConfig, PipelineResult
from repro.core.rul import RULEstimator, RULPrediction
from repro.runtime.cache import (
    PeakFeatureCache,
    array_digest,
    default_peak_cache,
    row_digests,
)
from repro.runtime.fleet import FleetExecutor
from repro.runtime.profile import RuntimeProfile
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


class BatchPeakHarmonicFeature(PeakHarmonicFeature):
    """Cache-backed, batch-extracting variant of the ``D_a`` feature.

    Produces bit-identical scores to the scalar
    :class:`~repro.core.classify.PeakHarmonicFeature`: smoothing runs
    through the flattened single-convolution kernel and peak selection
    shares the scalar selection code, so only the *batching* differs.
    """

    def __init__(
        self,
        num_peaks: int = DEFAULT_NUM_PEAKS,
        window_size: int = DEFAULT_WINDOW_SIZE,
        cache: PeakFeatureCache | None = None,
    ):
        super().__init__(num_peaks=num_peaks, window_size=window_size)
        self.cache = cache if cache is not None else default_peak_cache()

    def _params_key(self) -> tuple:
        # extract_harmonic_peaks defaults, spelled out so the cache key
        # pins every parameter that shapes the output.
        return PeakFeatureCache.peak_params_key(
            self.num_peaks, self.window_size, 2, DEFAULT_MIN_SIGNIFICANCE
        )

    def fit(
        self, reference_psds: np.ndarray, frequencies: np.ndarray
    ) -> "BatchPeakHarmonicFeature":
        """Build (or recall) the Zone A exemplar from reference PSD rows."""
        ref = np.atleast_2d(np.asarray(reference_psds, dtype=np.float64))
        if ref.shape[0] == 0:
            raise ValueError("at least one reference PSD is required")
        mean_psd = ref.mean(axis=0)
        freqs = np.asarray(frequencies, dtype=np.float64)
        self.baseline_ = self.cache.exemplar(
            mean_psd,
            freqs,
            self._params_key(),
            lambda: extract_harmonic_peaks(
                mean_psd,
                freqs,
                num_peaks=self.num_peaks,
                window_size=self.window_size,
            ),
        )
        return self

    def score_many(self, psds: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
        """``D_a`` per PSD row, batch-extracting only the cache misses.

        Runs through the cache's fused :meth:`~PeakFeatureCache.scores_for_rows`
        so each PSD row is digested exactly once: a warm row resolves its
        distance directly, a cold row fills the peaks entry and the
        row-keyed distance entry from one batched extraction plus one
        batched Algorithm 1 call.
        """
        if self.baseline_ is None:
            raise RuntimeError("feature is not fitted")
        rows = np.atleast_2d(np.asarray(psds, dtype=np.float64))
        freqs = np.asarray(frequencies, dtype=np.float64)
        return self.cache.scores_for_rows(
            rows,
            freqs,
            self._params_key(),
            self.baseline_,
            float(DEFAULT_WINDOW_SIZE),
            lambda miss_rows: extract_harmonic_peaks_batch(
                miss_rows,
                freqs,
                num_peaks=self.num_peaks,
                window_size=self.window_size,
            ),
        )


class BatchPipeline(AnalysisPipeline):
    """Vectorized analysis pipeline with parallel per-pump RUL fan-out.

    Same inputs, same outputs, same exceptions as the scalar
    :class:`~repro.core.pipeline.AnalysisPipeline` — the overridden
    stages swap loops for batched kernels without changing a single
    float.  :meth:`run` additionally accepts a
    :class:`~repro.runtime.profile.RuntimeProfile` to collect per-stage
    wall-clock timings and cache/executor counters.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: FleetExecutor | None = None,
        cache: PeakFeatureCache | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        checkpoint=None,
    ):
        super().__init__(config)
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        self.executor = executor if executor is not None else FleetExecutor()
        self.cache = cache if cache is not None else default_peak_cache()
        self.chunk_rows = chunk_rows
        #: Optional :class:`~repro.runtime.checkpoint.CheckpointManager`;
        #: when armed, every completed transform chunk is journaled and
        #: recalled on resume.
        self.checkpoint = checkpoint
        #: Row memo of the last :meth:`transform` call: row digest →
        #: row index into that call's frozen ``(offsets, rms, psd)``.
        self._memo_rows: dict[bytes, int] = {}
        self._memo_outputs: tuple[np.ndarray, ...] = ()
        #: Rows recalled from / missing in the row memo, cumulative.
        self.transform_hits = 0
        self.transform_misses = 0
        self._profile: RuntimeProfile | None = None

    # ------------------------------------------------------------------
    # Instrumentation plumbing.
    # ------------------------------------------------------------------
    def _stage(self, name: str, items: int = 0):
        if self._profile is None:
            return nullcontext()
        return self._profile.stage(name, items)

    # ------------------------------------------------------------------
    # Vectorized stages.
    # ------------------------------------------------------------------
    def transform(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data transformation layer over the whole measurement matrix.

        One batched orthonormal DCT-II per chunk replaces the scalar
        path's per-measurement calls; offsets and RMS come from the same
        broadcast reductions the scalar helpers apply per row, so all
        three outputs are bit-identical to
        :meth:`AnalysisPipeline.transform`.

        Rows are memoized by content.  Each row is digested once
        (:func:`~repro.runtime.cache.row_digests`); a row the previous
        call also saw is gathered from that call's frozen result
        matrices, and only the other rows — compacted — go through the
        chunk loop.  A rolling-window refresh therefore transforms just
        its new tail.  Every transform op is row-local, so gathered and
        recomputed rows are bit-identical to a cold run.  The memo holds
        the last call's outputs only, and those are the arrays this call
        returns: read-only, so no alias can change a memoized row.
        """
        start = time.perf_counter()
        blocks = np.asarray(samples, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        n, k = blocks.shape[0], blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        digests = row_digests(blocks)
        seen = self._memo_rows
        hit: list[int] = []
        source: list[int] = []
        miss: list[int] = []
        for row, digest in enumerate(digests):
            index = seen.get(digest)
            if index is None:
                miss.append(row)
            else:
                hit.append(row)
                source.append(index)
        if hit:
            outputs = (np.empty((n, 3)), np.empty(n), np.empty((n, k)))
            for out, previous in zip(outputs, self._memo_outputs):
                out[hit] = previous[source]
            computed = 0
            if miss:
                *fresh, computed = self._transform_chunks(blocks[miss])
                for out, rows in zip(outputs, fresh):
                    out[miss] = rows
        else:
            *outputs, computed = self._transform_chunks(blocks)
        for out in outputs:
            out.setflags(write=False)
        self._memo_rows = dict(zip(digests, range(n)))
        self._memo_outputs = tuple(outputs)
        self.transform_hits += len(hit)
        self.transform_misses += len(miss)
        if self._profile is not None:
            self._profile.add("transform", time.perf_counter() - start, computed)
        return self._memo_outputs

    def _transform_chunks(
        self, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Transform every row of ``blocks`` chunk by chunk.

        With a checkpoint armed, each chunk is first looked up in the
        journal by its input digest and every computed chunk is journaled
        the moment it completes.  Returns ``(offsets, rms, psd,
        computed)``, where ``computed`` counts the rows actually
        transformed rather than recalled from the journal.
        """
        n, k = blocks.shape[0], blocks.shape[1]
        offsets = np.empty((n, 3))
        rms = np.empty(n)
        psd = np.empty((n, k))
        ckpt = self.checkpoint
        missed: list[tuple[int, int, int, bytes | None]] = []
        for index, lo in enumerate(range(0, n, self.chunk_rows)):
            hi = min(lo + self.chunk_rows, n)
            chunk_key = None
            if ckpt is not None:
                chunk_key = array_digest(blocks[lo:hi])
                journaled = ckpt.load_chunk(index, chunk_key)
                if journaled is not None:
                    offsets[lo:hi], rms[lo:hi], psd[lo:hi] = journaled
                    continue
            missed.append((index, lo, hi, chunk_key))
        in_processes = self._use_process_transform(missed)
        if in_processes:
            self._transform_chunks_in_processes(blocks, missed, offsets, rms, psd)
        for index, lo, hi, chunk_key in missed:
            if not in_processes:
                _transform_tiled(blocks, lo, hi, offsets, rms, psd)
            # Journal each chunk the moment it completes, so a crash
            # mid-run resumes from here rather than from scratch.
            if ckpt is not None:
                ckpt.record_chunk(
                    index, lo, hi, chunk_key, offsets[lo:hi], rms[lo:hi], psd[lo:hi]
                )
        return offsets, rms, psd, sum(hi - lo for _, lo, hi, _ in missed)

    def _use_process_transform(
        self, missed: list[tuple[int, int, int, bytes | None]]
    ) -> bool:
        """Process-parallel transform only when it can actually pay off.

        Requires the executor's process backend (opt-in), more than one
        missed chunk to spread across workers, and a pool bigger than
        one — otherwise the in-process chunk loop is strictly cheaper.
        """
        return (
            self.executor.backend == "process"
            and self.executor.max_workers > 1
            and len(missed) > 1
        )

    def _transform_chunks_in_processes(
        self,
        blocks: np.ndarray,
        missed: list[tuple[int, int, int, bytes | None]],
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
            workers = min(self.executor.max_workers, len(missed))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                list(pool.map(_transform_chunk_in_process, payloads))
            for _, lo, hi, _key in missed:
                offsets[lo:hi] = shm_off.view[lo:hi]
                rms[lo:hi] = shm_rms.view[lo:hi]
                psd[lo:hi] = shm_psd.view[lo:hi]

    def _make_classifier(self) -> ZoneClassifier:
        """Zone classifier wired to the batch feature and shared cache."""
        return ZoneClassifier(
            feature=BatchPeakHarmonicFeature(
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
                cache=self.cache,
            )
        )

    def _predict_rul(
        self,
        estimator: RULEstimator,
        ids: np.ndarray,
        days: np.ndarray,
        da: np.ndarray,
        valid: np.ndarray,
    ) -> dict[object, RULPrediction]:
        """Per-pump RUL chains fanned across the fleet executor.

        Work items are built in ``np.unique(ids)`` order and
        :meth:`FleetExecutor.map_pumps` preserves submission order, so
        the resulting dict iterates identically to the scalar loop's.
        """
        if not estimator.n_models:
            return {}
        items = []
        for pump in np.unique(ids):
            member = np.nonzero((ids == pump) & valid)[0]
            if member.size:
                items.append((pump, days[member], da[member]))
        return self.executor.map_pumps(estimator.predict, items)

    # ------------------------------------------------------------------
    # Instrumented end-to-end runs.
    # ------------------------------------------------------------------
    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
    ) -> PipelineResult:
        """Execute the full workflow through the batched kernels.

        The orchestration is the shared :meth:`AnalysisPipeline.run`
        sequence; this wrapper only arms the profiler so every ``_stage``
        context collects wall-clock timings and cache/executor counters.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g.
            train_labels: measurement index → expert zone label.
            profile: optional per-stage wall-clock collector; stage
                timings and cache/executor counters accumulate into it.

        Returns:
            PipelineResult bit-identical to the scalar pipeline's.
        """
        with self._profiled(profile):
            return super().run(pump_ids, service_days, samples, train_labels)

    def _profiled(self, profile: RuntimeProfile | None):
        """Arm ``profile`` for the duration of a run, settling counters."""

        @contextmanager
        def armed():
            self._profile = profile
            hits0, misses0 = self.cache.hits, self.cache.misses
            t_hits0, t_misses0 = self.transform_hits, self.transform_misses
            ckpt = self.checkpoint
            c_hits0, c_misses0 = (
                (ckpt.hits, ckpt.misses) if ckpt is not None else (0, 0)
            )
            sup = self.executor.supervision_report
            sup0 = sup.as_dict() if sup is not None else None
            try:
                yield
                if profile is not None:
                    profile.count("peak_cache_hits", self.cache.hits - hits0)
                    profile.count("peak_cache_misses", self.cache.misses - misses0)
                    profile.count("transform_cache_hits", self.transform_hits - t_hits0)
                    profile.count(
                        "transform_cache_misses", self.transform_misses - t_misses0
                    )
                    profile.count("fleet_workers", self.executor.max_workers)
                    if ckpt is not None:
                        profile.count("checkpoint_hits", ckpt.hits - c_hits0)
                        profile.count("checkpoint_misses", ckpt.misses - c_misses0)
                    if sup0 is not None:
                        now = self.executor.supervision_report.as_dict()
                        profile.add_supervision(
                            {key: now[key] - sup0[key] for key in now}
                        )
            finally:
                self._profile = None

        return armed()
