"""The layered analytical workflow of Fig. 7, as a pure-numpy pipeline.

The pipeline mirrors the paper's layer stack:

* **data transformation** — raw acceleration blocks to physical features
  (per-measurement offsets, RMS, DCT-based PSD);
* **data preprocessing** — mean-shift outlier detection on acceleration
  averages per sensor, moving-average denoising of the degradation-feature
  time series, and construction of the dense matrices used downstream;
* **feature matrix extraction** — harmonic peak features, taken in the
  transform tile while each PSD row is in cache, and the peak harmonic
  distance ``D_a`` from a Zone A exemplar; each row's peaks, and its raw
  ``D_a`` under the exemplar it was scored against, are memoized with
  its transform outputs, keyed by the row's content, and a PSD row is
  kept only where a stage reads it;
* **RUL model layer** — zone classification thresholds, recursive-RANSAC
  lifetime models and per-pump RUL predictions.

Inputs are plain arrays so the pipeline is independent of the storage
layer; ``repro.analysis.engine`` binds it to the database-backed retrieval
API.  Every layer runs through the batched kernels of
:mod:`repro.runtime.batch` and the per-pump RUL chains run in line through
a :class:`~repro.runtime.fleet.FleetExecutor`; the results are bit-identical
to the scalar per-row oracle in ``tests/reference/`` (DESIGN.md, "The
bit-identity contract").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.classify import ZONE_A, OrderedThresholdClassifier, PeakHarmonicFeature
from repro.core.distance import packed_harmonic_distances
from repro.core.features import psd_frequencies
from repro.core.outliers import OutlierConfig, detect_invalid_measurements
from repro.core.peaks import (
    DEFAULT_NUM_PEAKS,
    DEFAULT_WINDOW_SIZE,
    PackedPeaks,
    extract_harmonic_peaks_batch,
)
from repro.core.ransac import LineModel, RecursiveRANSAC
from repro.core.rul import RULEstimator, RULPrediction, learn_zone_d_threshold
from repro.core.window import moving_average
from repro.runtime.batch import TRANSFORM_TILE_ROWS, RowTransformer
from repro.runtime.cache import as_float, row_digests
from repro.runtime.fleet import FleetExecutor
from repro.runtime.profile import RuntimeProfile


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of the analytical workflow.

    Attributes:
        sampling_rate_hz: sensor sampling rate for PSD bin frequencies.
        num_peaks: ``n_p`` of the harmonic peak extraction.
        peak_window_size: ``n_h`` Hann smoothing window.
        moving_average_window: trailing window (in measurements) applied
            to each pump's ``D_a`` series; 1 disables smoothing.  The
            paper defaults to one day of measurements.
        outlier: invalid-measurement detection configuration.
        ransac_min_inliers: minimum support for a lifetime model.
        ransac_residual_threshold: inlier band for lifetime models; None
            derives it from the data.
        ransac_seed: RNG seed for reproducible model discovery.
    """

    sampling_rate_hz: float = 4000.0
    num_peaks: int = DEFAULT_NUM_PEAKS
    peak_window_size: int = DEFAULT_WINDOW_SIZE
    moving_average_window: int = 1
    outlier: OutlierConfig = field(default_factory=OutlierConfig)
    ransac_min_inliers: int = 30
    ransac_residual_threshold: float | None = None
    ransac_seed: int = 0

    def __post_init__(self) -> None:
        if self.moving_average_window < 1:
            raise ValueError("moving_average_window must be positive")


def psd_positions(psd_rows: np.ndarray, rows) -> np.ndarray:
    """Positions in ``psd_rows`` (ascending row indices) of ``rows``.

    Raises:
        ValueError: when a row's PSD was not kept.
    """
    rows = np.asarray(rows, dtype=np.intp)
    positions = np.searchsorted(psd_rows, rows)
    if rows.size and (
        positions.max() >= psd_rows.size
        or not np.array_equal(psd_rows[positions], rows)
    ):
        raise ValueError("the PSD of a requested row was not kept")
    return positions


#: Rows under which a part of the PSD memo merges with the other small
#: parts when the memo is trimmed: a part is never grown in place, so
#: merging copies at most this many rows per small part.
MERGED_PSD_ROWS = 8 * TRANSFORM_TILE_ROWS


def _room(n: int) -> int:
    """Rows a row-memo buffer for ``n`` rows holds: geometric headroom,
    so a growing window appends in place for a while."""
    return n + n // 2


def _buffer(like: np.ndarray, n: int) -> np.ndarray:
    """An empty buffer for :func:`_room` ``(n)`` rows like ``like``'s."""
    return np.empty((_room(n), *like.shape[1:]), dtype=like.dtype)


def _follows(fresh: np.ndarray, h: int) -> bool:
    """Whether the flagged rows are exactly those after the first ``h``."""
    return h <= fresh.size and not fresh[:h].any() and bool(fresh[h:].all())


def _extend(buffer: np.ndarray, size: int, fresh: np.ndarray, at) -> np.ndarray:
    """``buffer[:size]`` followed by rows ``at`` of ``fresh``, as the first
    rows of one buffer; only rows past ``size`` are written.

    That buffer is ``buffer`` itself while it has room, or else a copy
    with headroom (:func:`_buffer`) — unless ``size`` is 0 and ``at``
    names the first rows of ``fresh`` in order: then ``fresh`` is it.
    """
    n = size + len(at)
    if size == 0 and np.array_equal(at, np.arange(n)):
        return fresh
    if buffer.shape[0] < n:
        grown = _buffer(fresh, n)
        if size:
            grown[:size] = buffer[:size]
        buffer = grown
    buffer[size:n] = fresh[at]
    return buffer


def zone_a_rows(train_labels: dict[int, str]) -> list[int]:
    """Ascending indices of the rows labelled Zone A: the rows whose PSD
    the Zone A exemplar reads."""
    return [i for i in sorted(train_labels) if train_labels[i] == ZONE_A]


def _check_inputs(pump_ids, service_days, rows: int, train_labels) -> None:
    """Raise ValueError unless the per-row inputs align and the labels
    name rows."""
    n = np.shape(pump_ids)[0]
    if np.shape(service_days)[0] != n or rows != n:
        raise ValueError("pump_ids, service_days and samples must align")
    if not train_labels:
        raise ValueError("train_labels must not be empty")
    bad_idx = [i for i in train_labels if not 0 <= i < n]
    if bad_idx:
        raise ValueError(f"train_labels reference invalid indices: {bad_idx}")


class RowFeatures(NamedTuple):
    """Per-row transform outputs of :meth:`AnalysisPipeline.transform`.

    Attributes:
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        peak_frequencies: ``(n, num_peaks)`` harmonic peak frequencies,
            zero-padded (see :class:`~repro.core.peaks.PackedPeaks`).
        peak_values: ``(n, num_peaks)`` peak amplitudes, zero-padded.
        peak_counts: ``(n,)`` real peaks per row.
        psd: ``(m, K)`` PSD rows of the rows at ``psd_rows``.
        psd_rows: ``(m,)`` ascending row indices whose PSD was kept.
    """

    offsets: np.ndarray
    rms: np.ndarray
    peak_frequencies: np.ndarray
    peak_values: np.ndarray
    peak_counts: np.ndarray
    psd: np.ndarray
    psd_rows: np.ndarray

    @property
    def peaks(self) -> PackedPeaks:
        """Every row's harmonic peaks, packed."""
        return PackedPeaks(self.peak_frequencies, self.peak_values, self.peak_counts)


class RowStream:
    """One window's rows streaming into the transformation layer.

    The row sink (see :class:`~repro.storage.database.DenseRows`) that
    :meth:`AnalysisPipeline.stream` returns.  Retrieval asks
    :meth:`wants` of every kept row, in row order: a row the pipeline's
    row memo serves — its key is memoized, and its PSD is not wanted or
    memoized too — is not decoded.  Each batch of decoded rows goes
    through the transform tiles on arrival (:meth:`put`), so the window's
    sample matrix is never held.  A row whose id is in ``psd_ids`` (every
    row when ``psd_ids`` is None) keeps its PSD row, and with
    ``keep_new_psd`` so does every row transformed.  Rows holding a
    non-finite sample are skipped and listed in :attr:`nonfinite`.  Once
    the window is complete, :meth:`features` merges the transformed rows
    with the memoized ones.  Use it as a context manager: leaving it
    shuts the transform threads down.

    One kind of row waits instead: a memoized row decoded only because
    its id is in ``psd_ids`` and the memo lacks its PSD.  Its samples
    are held until :meth:`features` knows which rows' PSD is wanted — a
    row read twice is labelled on its last copy only, so the memo serves
    the other — and only then transformed.  Such rows are the ones
    labelled since the memo took them, so few are held.
    """

    def __init__(
        self,
        pipeline: "AnalysisPipeline",
        psd_ids=None,
        profile=None,
        keep_new_psd: bool = False,
    ):
        self._pipeline = pipeline
        self._psd_ids = psd_ids
        self._profile = profile
        self._keep_new = keep_new_psd
        config = pipeline.config
        self._transformer = RowTransformer(
            pipeline.executor.max_workers, config.num_peaks, pipeline.journal
        )
        self.start(0, 0)

    def __enter__(self) -> "RowStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self._transformer.close()

    def start(self, n: int, k: int) -> None:
        """Open a window of at most ``n`` rows of ``k`` samples."""
        self._k = k
        #: Per kept row: its position among the transformed rows, -1
        #: when the memo serves it, or ``-2 - h`` for held row ``h``.
        self._fresh_at: list[int] = []
        #: Per transformed row: its key and whether its PSD is kept.
        self._keys: list[bytes] = []
        self._keep: list[bool] = []
        #: Per decoded row since the last batch: whether it is held.
        self._queue: list[bool] = []
        self._held: list[np.ndarray] = []
        self._held_rows = 0
        # A memoized row is not transformed again, so a refresh's
        # transform keeps about its new rows' PSD (the buffer grows when
        # a window holds more).  The memo adopts the transform's column
        # buffers when it holds no row yet, so they get its headroom.
        expected = max(n - len(self._pipeline._memo_rows), 0)
        if self._psd_ids is not None and not self._keep_new:
            expected = min(expected, len(self._psd_ids))
        extract = self._pipeline._extract(k) if k >= 2 else None
        self._transformer.start(_room(n), k, expected, extract)

    @property
    def samples(self) -> np.ndarray:
        """No samples are held: an empty ``(0, K, 3)`` float32 array."""
        return np.empty((0, self._k, 3), dtype=np.float32)

    def wants(self, key: bytes, row_id) -> bool:
        """Whether the next kept row, ``row_id``, must be decoded."""
        pipeline = self._pipeline
        psd = self._psd_ids is None or row_id in self._psd_ids
        if key in pipeline._memo_rows:
            if not psd or key in pipeline._psd_at:
                self._fresh_at.append(-1)
                return False
            if self._psd_ids is not None:
                self._fresh_at.append(-2 - self._held_rows)
                self._held_rows += 1
                self._queue.append(True)
                return True
        self._fresh_at.append(len(self._keys))
        self._keys.append(key)
        self._keep.append(psd or self._keep_new)
        self._queue.append(False)
        return True

    def put(self, rows: np.ndarray) -> None:
        """Take a batch of decoded ``(m, K, 3)`` rows, in row order."""
        if self._k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        queue, self._queue = np.asarray(self._queue, dtype=bool), []
        if queue.any():
            self._held.append(rows[queue])
            rows = rows[~queue]
        if rows.shape[0]:
            self._transform(rows)

    def _transform(self, rows: np.ndarray) -> None:
        """Transform the next rows of :attr:`_keys` (one ``transform`` stage)."""
        start = time.perf_counter()
        transformer = self._transformer
        lo, hi = transformer.done, transformer.done + rows.shape[0]
        transformer.put(
            rows, np.asarray(self._keep[lo:hi], dtype=bool), self._keys[lo:hi]
        )
        if self._profile is not None:
            self._profile.add(
                "transform",
                time.perf_counter() - start,
                int(np.count_nonzero(transformer.finite[lo:hi])),
            )

    @property
    def nonfinite(self) -> np.ndarray:
        """Ascending kept-row indices skipped for a non-finite sample."""
        transformer = self._transformer
        bad = np.flatnonzero(~transformer.finite[: transformer.done])
        if not bad.size:
            return bad
        return np.flatnonzero(np.isin(self._fresh_at, bad))

    def features(self, keys: list[bytes], psd_rows=None) -> RowFeatures:
        """Every row's :class:`RowFeatures`, and they become the row memo.

        ``keys`` are the key of every kept row but the :attr:`nonfinite`
        ones, in row order; ``psd_rows`` the indices (into ``keys``) of
        the rows whose PSD to return, which must be rows whose id was in
        ``psd_ids`` (None: every row).  A transformed row's outputs come
        from the transform, a served row's from the memo; every op is
        row-local, so both are bit-identical to a cold run.

        When the served rows are exactly the memo's rows, in memo order,
        and every transformed row follows them — a cold run, or a
        refresh of a growing window (``Te_j = Te_{j-1} + δ``) — the memo
        grows in place: only the transformed rows are written, past the
        end of the memo's buffers (a larger copy when one is full), and
        the outputs are read-only views of the buffers' first rows.  Any
        other window (a row arriving mid-window, a duplicate read, a
        quarantined row, a journal's rows in another order) gathers
        every row into new buffers.  Either way a row handed out is
        never written again.

        The PSD rows kept by the transform join the PSD memo, which is
        never handed out: the returned ``psd`` is a copy of the
        requested rows.  The memo then keeps those rows alone, unless
        the stream keeps new rows' PSD (the caller trims it with
        :meth:`AnalysisPipeline.retain_psd`).

        Raises:
            ValueError: when ``keys`` does not match the rows streamed,
                or a requested row's PSD was not kept.
        """
        pipeline = self._pipeline
        transformer = self._transformer
        fresh_at = np.asarray(self._fresh_at, dtype=np.intp)
        nonfinite = self.nonfinite
        if nonfinite.size:
            fresh_at = np.delete(fresh_at, nonfinite)
        n = len(keys)
        if fresh_at.size != n:
            raise ValueError(f"{n} row keys passed for {fresh_at.size} streamed rows")
        wanted = np.ones(n, dtype=bool)
        if psd_rows is not None:
            wanted[:] = False
            wanted[np.asarray(psd_rows, dtype=np.intp)] = True
        kept = np.flatnonzero(wanted)

        # A held row is transformed only if its own PSD is wanted.
        held = np.flatnonzero(fresh_at <= -2)
        if held.size:
            needed = held[wanted[held]]
            samples = np.concatenate(self._held)[-2 - fresh_at[needed]]
            fresh_at[held] = -1
            fresh_at[needed] = transformer.done + np.arange(needed.size)
            self._keys.extend(keys[i] for i in needed.tolist())
            self._keep.extend([True] * needed.size)
            if needed.size:
                self._transform(samples)
        start = time.perf_counter()
        transformer.finish()
        done = transformer.done
        # The memo's columns are the transform outputs plus raw D_a, which
        # no transformed row has yet.
        fresh = (*transformer.outputs, np.full(done, np.nan))
        transformed = fresh_at >= 0
        hit = np.flatnonzero(~transformed)
        miss = np.flatnonzero(transformed)
        h = len(pipeline._memo_keys)
        if _follows(transformed, h) and keys[:h] == pipeline._memo_keys:
            columns = tuple(
                _extend(column, h, rows, fresh_at[h:])
                for column, rows in zip(pipeline._memo_columns, fresh)
            )
        else:
            h = 0
            source = [pipeline._memo_rows[keys[i]] for i in hit.tolist()]
            columns = tuple(_buffer(rows, n) for rows in fresh)
            for out, rows, previous in zip(columns, fresh, pipeline._memo_columns):
                out[miss] = rows[fresh_at[miss]]
                if hit.size:
                    out[hit] = previous[source]

        # Each kept PSD row joins the PSD memo under its row's key; a
        # non-finite row's has no key (the next trim drops it).
        kept_rows = np.flatnonzero(transformer.keep[:done]).tolist()
        finite = transformer.finite[:done].tolist()
        pipeline._keep_psd(
            [self._keys[i] if finite[i] else None for i in kept_rows],
            transformer.take_psd(),
        )
        wanted_keys = [keys[i] for i in kept.tolist()]
        try:
            psd = pipeline._psd_rows(wanted_keys, np.empty((kept.size, self._k)))
        except KeyError:
            raise ValueError("the PSD of a requested row was not kept") from None
        if not self._keep_new:
            pipeline.retain_psd(wanted_keys)

        pipeline._remember(keys, columns, h)
        views = [column[:n] for column in columns[:-1]] + [psd, kept]
        for view in views:
            view.setflags(write=False)
        pipeline._memo_offsets = views[0]
        pipeline._fresh = transformed
        pipeline._count_transform(hit.size, miss.size, self._profile)
        if self._profile is not None:
            self._profile.add("transform", time.perf_counter() - start)
        return RowFeatures(*views)


@dataclass
class PipelineResult:
    """All artifacts produced by one pipeline run.

    Attributes:
        valid_mask: per-measurement validity after outlier detection.
        offsets: ``(n, 3)`` acceleration averages.
        rms: ``(n,)`` RMS features.
        peaks: harmonic peaks of every measurement, packed.
        psd: ``(m, K)`` PSD rows of the measurements at ``psd_rows``:
            the labelled Zone A rows, which the exemplar reads.
        psd_rows: ``(m,)`` ascending measurement indices of ``psd``.
        da: ``(n,)`` peak harmonic distance from the Zone A exemplar
            (NaN for invalid measurements).
        zones: predicted zone label per measurement (``""`` for invalid).
        zone_thresholds: learned ``D_a`` boundaries between ordered zones.
        zone_d_threshold: hazard boundary used by the RUL layer.
        lifetime_models: population models discovered by recursive RANSAC.
        rul: per-pump RUL predictions.
    """

    valid_mask: np.ndarray
    offsets: np.ndarray
    rms: np.ndarray
    peaks: PackedPeaks
    psd: np.ndarray
    psd_rows: np.ndarray
    da: np.ndarray
    zones: np.ndarray
    zone_thresholds: np.ndarray
    zone_d_threshold: float
    lifetime_models: list[LineModel]
    rul: dict[object, RULPrediction]


class AnalysisPipeline:
    """Fig. 7 workflow over in-memory measurement arrays.

    Args:
        config: analytical parameters (defaults apply when None).
        executor: fleet executor for the per-pump RUL fan-out; its
            worker count also sizes the threaded transform.  A default
            thread pool when None.
        journal: optional :class:`~repro.runtime.checkpoint.RowJournal`,
            the row memo on disk: the memo starts from its verified
            rows, and every row transformed is journaled.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: FleetExecutor | None = None,
        journal=None,
    ):
        self.config = config or PipelineConfig()
        self.executor = executor if executor is not None else FleetExecutor()
        self.journal = journal
        self.estimator_: RULEstimator | None = None
        #: Row memo of the last :meth:`transform` call (or the journal's
        #: rows, before the first): the key of each memo row, in row
        #: order, and key → row; the per-row column buffers ``(offsets,
        #: rms, peak_frequencies, peak_values, peak_counts, raw D_a)``,
        #: whose first rows are the memo's (raw ``D_a`` is NaN where a
        #: row was not scored against ``_memo_exemplar``, the bytes of
        #: the exemplar's frequencies and values).
        #: :meth:`RowStream.features` grows the buffers in place;
        #: ``_memo_offsets`` is the offsets view it returned last.
        self._memo_keys: list[bytes] = []
        self._memo_rows: dict[bytes, int] = {}
        self._memo_columns: tuple[np.ndarray, ...] = (np.empty(0),) * 6
        #: PSD memo: key → ``(part, row)`` in ``_psd_parts``, one array
        #: per batch of rows added (rows no key names wait for the next
        #: trim).  Never handed out, so :meth:`retain_psd` moves rows in
        #: place and shrinks each part; a part never grows.
        self._psd_at: dict[bytes, tuple[int, int]] = {}
        self._psd_parts: list[np.ndarray] = []
        self._memo_exemplar = b""
        self._memo_offsets: np.ndarray | None = None
        #: Rows the last :meth:`transform` call transformed.
        self._fresh = np.zeros(0, dtype=bool)
        #: Rows recalled from the in-process memo / transformed, cumulative.
        self.transform_hits = 0
        self.transform_misses = 0
        #: Rows recalled from / written to the journal, cumulative.
        self.journal_hits = 0
        self.journal_misses = 0
        #: Valid rows whose peaks were recalled / extracted, cumulative.
        self.peak_hits = 0
        self.peak_misses = 0
        seed = journal.load(self._peak_spec()) if journal is not None else None
        #: True while the memo holds the journal's rows, until the first
        #: transform: its hits are journal hits.
        self._memo_from_journal = seed is not None
        if seed is not None:
            keys, outputs, psd_rows, psd = seed
            self._remember(keys, (*outputs, np.full(len(keys), np.nan)))
            self._keep_psd([keys[i] for i in psd_rows], psd)

    @property
    def memo_keys(self):
        """Row keys the row memo holds (a read-only view)."""
        return self._memo_rows.keys()

    @property
    def psd_keys(self):
        """Row keys whose PSD row the row memo holds (a read-only view)."""
        return self._psd_at.keys()

    def _peak_spec(self) -> str:
        """The peak parameters journaled rows must share to be recalled."""
        config = self.config
        return (
            f"peaks={config.num_peaks} window={config.peak_window_size}"
            f" fs={config.sampling_rate_hz!r}"
        )

    def _remember(self, keys, columns, h=0) -> None:
        """Make ``columns`` the row memo of ``keys``; the memo already
        holds the first ``h`` keys at those rows."""
        if not h:
            self._memo_rows = {}
        self._memo_keys[h:] = keys[h:]
        self._memo_rows.update(zip(keys[h:], range(h, len(keys))))
        self._memo_columns = tuple(columns)

    def _keep_psd(self, keys: list, psd: np.ndarray) -> None:
        """Add the first ``len(keys)`` rows of ``psd`` to the PSD memo as
        a new part, each under its key (None: under no key)."""
        if not keys:
            return
        if self._psd_parts and self._psd_parts[0].shape[1] != psd.shape[1]:
            self._psd_at, self._psd_parts = {}, []
        part = len(self._psd_parts)
        self._psd_parts.append(psd)
        self._psd_at.update((key, (part, row)) for row, key in enumerate(keys) if key)

    def retain_psd(self, keys) -> None:
        """Keep the PSD memo's rows under ``keys`` alone (keys it lacks
        are ignored).

        In each part the kept rows move down in place and the part
        shrinks to them with ``ndarray.resize``: a realloc, so no second
        copy is held and the freed rows go back to the allocator (a
        numpy buffer cannot be grown that way without a copy, so parts
        never grow).  When ``resize`` refuses — a trace or profile hook's
        frame snapshot holds another reference to the part — the kept
        rows are copied instead.  Parts left under
        :data:`MERGED_PSD_ROWS` rows are merged into one.
        """
        wanted = set(keys)
        kept: list[list] = [[] for _ in self._psd_parts]
        for key, (part, row) in self._psd_at.items():
            if key in wanted:
                kept[part].append((row, key))
        parts, self._psd_parts, self._psd_at = self._psd_parts, [], {}
        trimmed = []
        for index, rows in enumerate(kept):
            # The part's one reference is ``psd``, as resize requires.
            psd, parts[index] = parts[index], None
            if not rows:
                continue
            rows.sort()
            at = np.fromiter((row for row, _ in rows), np.intp, len(rows))
            moved = np.flatnonzero(at != np.arange(at.size))
            tile = TRANSFORM_TILE_ROWS
            for lo in range(moved[0] if moved.size else at.size, at.size, tile):
                # at[i] >= i, so a tile reads no row an earlier tile wrote.
                src = at[lo : lo + tile]
                psd[lo : lo + src.size] = psd[src]
            try:
                psd.resize((at.size, psd.shape[1]))
            except ValueError:
                psd = psd[: at.size].copy()
            trimmed.append((psd, [key for _, key in rows]))
        small = [part for part in trimmed if len(part[1]) < MERGED_PSD_ROWS]
        if len(small) > 1:
            trimmed = [part for part in trimmed if len(part[1]) >= MERGED_PSD_ROWS]
            merged = np.concatenate([psd for psd, _ in small])
            trimmed.append((merged, [key for _, keys in small for key in keys]))
        for psd, part_keys in trimmed:
            self._keep_psd(part_keys, psd)

    def _psd_rows(self, keys, out: np.ndarray) -> np.ndarray:
        """Write the PSD memo's rows under ``keys`` into ``out``, in order.

        Raises:
            KeyError: when the memo lacks a key's PSD.
        """
        at = [self._psd_at[key] for key in keys]
        parts = np.fromiter((part for part, _ in at), np.intp, len(at))
        rows = np.fromiter((row for _, row in at), np.intp, len(at))
        # Tile by tile: a gather's temporary holds one tile of rows.
        for lo in range(0, len(at), TRANSFORM_TILE_ROWS):
            tile = slice(lo, lo + TRANSFORM_TILE_ROWS)
            for part in np.unique(parts[tile]).tolist():
                pick = np.flatnonzero(parts[tile] == part) + lo
                out[pick] = self._psd_parts[part][rows[pick]]
        return out

    def psd_mean(self, keys: list[bytes]) -> np.ndarray:
        """Mean of the PSD memo's rows under ``keys``, summed in the order
        given, one tile of rows at a time.

        numpy sums axis 0 of a C-contiguous matrix row by row, so each
        tile is summed with the running total as its first row (zeros at
        first, which add nothing to non-negative PSD rows): bit-identical
        to gathering every row and taking ``.mean(axis=0)``, without the
        gathered copy.

        Raises:
            KeyError: when the memo lacks a key's PSD.
        """
        tile = TRANSFORM_TILE_ROWS
        carry = np.zeros((tile + 1, self._psd_parts[0].shape[1]))
        for lo in range(0, len(keys), tile):
            chunk = keys[lo : lo + tile]
            self._psd_rows(chunk, carry[1 : len(chunk) + 1])
            carry[0] = np.add.reduce(carry[: len(chunk) + 1], axis=0)
        return carry[0] / len(keys)

    def add_psd(self, keys: list[bytes], blocks: np.ndarray) -> None:
        """Transform ``(m, K, 3)`` ``blocks`` again and keep their PSD
        rows under ``keys``: rows the memo serves without their PSD.

        The same :class:`~repro.runtime.batch.RowTransformer` runs them
        (without the journal, which has them); every op is row-local, so
        each PSD row is bit-identical to the one a full transform keeps.
        """
        n, k = blocks.shape[:2]
        transformer = RowTransformer(self.executor.max_workers, self.config.num_peaks)
        try:
            transformer.start(n, k, n, self._extract(k))
            transformer.put(blocks, np.ones(n, dtype=bool))
        finally:
            transformer.close()
        self._keep_psd(keys, transformer.take_psd())

    def _raw_da(self, features: RowFeatures, exemplar) -> np.ndarray:
        """Raw ``D_a`` of ``features``' rows, NaN where not yet scored.

        The memo's column when ``features`` are its rows — what
        :meth:`RowStream.features` last returned — cleared when
        ``exemplar`` differs from the one its rows were scored against;
        else a new all-NaN array.  Scores written to it are memoized.
        """
        n = features.offsets.shape[0]
        if features.offsets is not self._memo_offsets:
            return np.full(n, np.nan)
        column = self._memo_columns[-1][:n]
        exemplar_bytes = exemplar.frequencies.tobytes() + exemplar.values.tobytes()
        if exemplar_bytes != self._memo_exemplar:
            column[:] = np.nan
            self._memo_exemplar = exemplar_bytes
        return column

    def _extract(self, num_bins: int):
        """Tile peak extraction: ``(m, K)`` PSD rows → packed peak arrays."""
        freqs = self.frequencies(num_bins)

        def extract(rows: np.ndarray) -> tuple[np.ndarray, ...]:
            packed = extract_harmonic_peaks_batch(
                rows,
                freqs,
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            )
            return packed.frequencies, packed.values, packed.counts

        return extract

    # ------------------------------------------------------------------
    # Individual layers, usable on their own.
    # ------------------------------------------------------------------
    def stream(
        self,
        psd_ids=None,
        profile: RuntimeProfile | None = None,
        keep_new_psd: bool = False,
    ) -> RowStream:
        """A :class:`RowStream` into this pipeline's transformation layer.

        Args:
            psd_ids: ids of the rows whose PSD to keep (retrieval passes
                ``(pump_id, measurement_id)`` pairs); None keeps every
                row's.
            profile: optional collector for the ``transform`` stage;
                its item count is the rows actually transformed.
            keep_new_psd: also keep the PSD of every row transformed,
                and leave the PSD memo untrimmed for the caller to trim
                with :meth:`retain_psd` (a caller that diagnoses, and
                learns which rows it reads only after the analysis).
        """
        return RowStream(self, psd_ids, profile, keep_new_psd)

    def _count_transform(
        self, hits: int, misses: int, profile: RuntimeProfile | None
    ) -> None:
        """Tally one transform's recalled and transformed rows."""
        from_journal, self._memo_from_journal = self._memo_from_journal, False
        counts = {
            "transform_cache_hits": 0 if from_journal else hits,
            "transform_cache_misses": misses,
        }
        self.transform_hits += counts["transform_cache_hits"]
        self.transform_misses += misses
        if self.journal is not None:
            counts["checkpoint_hits"] = hits if from_journal else 0
            counts["checkpoint_misses"] = misses
            self.journal_hits += counts["checkpoint_hits"]
            self.journal_misses += misses
        if profile is not None:
            for name, value in counts.items():
                profile.count(name, value)

    def transform(
        self,
        samples: np.ndarray,
        profile: RuntimeProfile | None = None,
        row_keys: list[bytes] | None = None,
        psd_rows=None,
    ) -> RowFeatures:
        """Data transformation layer: every block's :class:`RowFeatures`.

        The in-memory entry to :meth:`stream`: the rows go through the
        same :class:`RowStream` a retrieval feeds, so each row's offsets,
        RMS and harmonic peaks come out of one pass over its transform
        tile, and its PSD row is kept only when ``psd_rows`` names it
        (every row when ``psd_rows`` is None).

        Rows are memoized by content.  Each row has one key: given in
        ``row_keys``, or else digested here
        (:func:`~repro.runtime.cache.row_digests`).  A row the previous
        call also saw is recalled from the row memo — unless its own PSD
        is wanted and that call did not keep it — and only the other
        rows, compacted, are transformed.  A rolling-window refresh
        therefore transforms just its new tail, and the memo grows in
        place (see :meth:`RowStream.features`).
        A pipeline with a journal starts from the journal's rows and
        journals every row it transforms.

        Float32 samples (the stored precision) and float64 samples are
        used as given — no whole-matrix upcast; each transform tile
        upcasts its own rows exactly — and any other dtype is cast to
        float64.  Row digests hash the rows in that dtype.

        Args:
            samples: measurement blocks, shape ``(n, K, 3)``; with
                ``row_keys``, only the rows the memo cannot serve — its
                key is not in :attr:`memo_keys`, or its own PSD is
                wanted and its key is not in :attr:`psd_keys` — in row
                order (``(0, K, 3)`` when it serves every row).
            profile: optional collector for the ``transform`` stage; its
                item count is the rows actually transformed.
            row_keys: optional row key of every row, as
                :func:`~repro.runtime.cache.row_digests` would compute
                it (the measurement store writes them at ingest).
            psd_rows: optional row indices whose PSD to keep; None keeps
                every row's.

        Raises:
            ValueError: when ``samples`` does not hold exactly the rows
                of ``row_keys`` that the memo cannot serve, or holds a
                non-finite sample.
        """
        blocks = as_float(samples)
        if blocks.ndim != 3 or blocks.shape[2] != 3:
            raise ValueError(f"samples must have shape (n, K, 3), got {blocks.shape}")
        digests = row_digests(blocks) if row_keys is None else row_keys
        n, k = len(digests), blocks.shape[1]
        if n and k < 2:
            raise ValueError("measurement must contain at least 2 samples")
        ids = None if psd_rows is None else set(np.asarray(psd_rows).tolist())
        with self.stream(ids, profile) as stream:
            stream.start(n, k)
            miss = [row for row, key in enumerate(digests) if stream.wants(key, row)]
            if row_keys is None:
                fresh = blocks[miss] if len(miss) < n else blocks
            elif len(miss) == blocks.shape[0]:
                fresh = blocks
            else:
                raise ValueError(
                    f"{blocks.shape[0]} sample rows passed for the {len(miss)}"
                    " rows the memo lacks"
                )
            if miss:
                stream.put(fresh)
            if stream.nonfinite.size:
                raise ValueError("measurement contains non-finite samples")
            return stream.features(digests, psd_rows)

    def preprocess(
        self,
        pump_ids: np.ndarray,
        offsets: np.ndarray,
        service_days: np.ndarray | None = None,
    ) -> np.ndarray:
        """Preprocessing layer: per-sensor invalid-measurement mask.

        Outlier detection runs per sensor *epoch*: a pump replacement
        installs a fresh sensor with a new mounting orientation, so each
        stretch of monotonically increasing service time is clustered on
        its own (a legitimate offset change at replacement must not
        poison the new sensor's regime).

        Returns a boolean mask where True marks a *valid* measurement.
        """
        ids = np.asarray(pump_ids)
        valid = np.ones(ids.shape[0], dtype=bool)
        for pump in np.unique(ids):
            member_idx = np.nonzero(ids == pump)[0]
            if service_days is None:
                epochs = [member_idx]
            else:
                days = np.asarray(service_days, dtype=np.float64)[member_idx]
                resets = np.nonzero(np.diff(days) < 0)[0] + 1
                epochs = np.split(member_idx, resets)
            for epoch in epochs:
                if epoch.size == 0:
                    continue
                invalid = detect_invalid_measurements(
                    offsets[epoch], self.config.outlier
                )
                valid[epoch[invalid]] = False
        return valid

    def frequencies(self, num_bins: int) -> np.ndarray:
        """PSD bin frequencies for the configured sampling rate."""
        return psd_frequencies(num_bins, self.config.sampling_rate_hz)

    # ------------------------------------------------------------------
    # End-to-end run.
    # ------------------------------------------------------------------
    def run(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        samples: np.ndarray,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
        row_keys: list[bytes] | None = None,
    ) -> PipelineResult:
        """Execute the full workflow: :meth:`transform`, then :meth:`analyze`.

        Only the Zone A exemplar reads PSD rows, so the result keeps the
        PSD of the labelled Zone A measurements alone.

        Args:
            pump_ids: pump identifier per measurement, shape ``(n,)``.
            service_days: pump service time (days) per measurement.
            samples: raw blocks ``(n, K, 3)`` in g, float32 or float64
                (see :meth:`transform`); with ``row_keys``, only the rows
                the row memo cannot serve.
            train_labels: mapping from measurement index to expert zone
                label; must contain at least one measurement of each zone
                (A, BC and D).
            profile: optional collector of per-stage wall-clock timings
                and cache, checkpoint and executor counters.
            row_keys: optional row-memo key per measurement (see
                :meth:`transform`); None digests ``samples``.

        Returns:
            PipelineResult with every layer's artifacts.

        Raises:
            ValueError: on misaligned inputs, or when ``samples`` is not
                exactly the rows of ``row_keys`` the memo cannot serve.
        """
        blocks = as_float(samples)
        rows = blocks.shape[0] if row_keys is None else len(row_keys)
        _check_inputs(pump_ids, service_days, rows, train_labels)
        features = self.transform(blocks, profile, row_keys, zone_a_rows(train_labels))
        return self.analyze(pump_ids, service_days, features, train_labels, profile)

    def analyze(
        self,
        pump_ids: np.ndarray,
        service_days: np.ndarray,
        features: RowFeatures,
        train_labels: dict[int, str],
        profile: RuntimeProfile | None = None,
    ) -> PipelineResult:
        """Every layer after the transform, from each row's features.

        ``features`` are the rows' :class:`RowFeatures` (from
        :meth:`transform` or :meth:`RowStream.features`); the PSD rows of
        the labelled Zone A measurements must be among them.  ``D_a`` is
        scored from the harmonic peaks the transform tile extracted; for
        the features :meth:`RowStream.features` returned last, a row
        already scored against an equal Zone A exemplar keeps its raw
        ``D_a`` from the row memo.  Arguments and result as :meth:`run`.
        """
        ids = np.asarray(pump_ids)
        days = np.asarray(service_days, dtype=np.float64)
        _check_inputs(ids, days, features.offsets.shape[0], train_labels)
        n = ids.shape[0]
        profile = profile if profile is not None else RuntimeProfile()
        offsets = features.offsets

        with profile.stage("preprocess", n):
            valid = self.preprocess(ids, offsets, days)
        freqs = self.frequencies(features.psd.shape[1])
        valid_idx = np.nonzero(valid)[0]

        with profile.stage("fit_classifier", len(train_labels)):
            train_idx = np.asarray(
                [i for i in sorted(train_labels) if valid[i]], dtype=np.intp
            )
            if train_idx.size == 0:
                raise ValueError("all labelled measurements were flagged invalid")
            labels = np.asarray([train_labels[int(i)] for i in train_idx], dtype=object)
            reference = train_idx[labels == ZONE_A]
            if reference.size == 0:
                raise ValueError(f"no {ZONE_A!r} samples to build the baseline")
            reference_psd = features.psd[psd_positions(features.psd_rows, reference)]
            exemplar = PeakHarmonicFeature(
                num_peaks=self.config.num_peaks,
                window_size=self.config.peak_window_size,
            ).fit(reference_psd, freqs).baseline_

        with profile.stage("score_da", int(valid_idx.size)):
            # The kernel is row-local, so a memo row already scored
            # against an equal exemplar keeps its raw D_a.  Padding every
            # row to num_peaks columns leaves the kernel's output
            # unchanged: it reads only real peaks.
            raw = self._raw_da(features, exemplar)
            scored = valid_idx[np.isnan(raw[valid_idx])]
            peaks = features.peaks
            raw[scored] = packed_harmonic_distances(
                PackedPeaks(
                    peaks.frequencies[scored],
                    peaks.values[scored],
                    peaks.counts[scored],
                ),
                exemplar,
            )
            da = np.full(n, np.nan)
            da[valid_idx] = raw[valid_idx]
            profile.count("da_cache_hits", valid_idx.size - scored.size)
            profile.count("da_cache_misses", scored.size)
            extracted = int(np.count_nonzero(self._fresh[valid_idx]))
            self.peak_hits += valid_idx.size - extracted
            self.peak_misses += extracted
            profile.count("peak_cache_hits", valid_idx.size - extracted)
            profile.count("peak_cache_misses", extracted)
            train_da = da[train_idx]
            if self.config.moving_average_window > 1:
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    member = member[np.argsort(days[member], kind="stable")]
                    if member.size:
                        da[member] = moving_average(
                            da[member], self.config.moving_average_window
                        )

        # The zone thresholds are fitted on the raw (pre-smoothing) D_a.
        with profile.stage("fit_classifier"):
            classifier = OrderedThresholdClassifier().fit(train_da, labels)

        with profile.stage("classify_zones", int(valid_idx.size)):
            zones = np.full(n, "", dtype=object)
            zones[valid_idx] = classifier.predict(da[valid_idx])

        # The RUL model layer is two distinct costs worth separating in a
        # profile: the exact KDE threshold scan over the labelled records
        # and the batched recursive-RANSAC fit over the whole fleet.
        with profile.stage("learn_threshold", int(len(labels))):
            zone_d_threshold = learn_zone_d_threshold(da[train_idx], labels)
        with profile.stage("fit_lifetime_models", int(valid_idx.size)):
            estimator = RULEstimator(
                zone_d_threshold,
                RecursiveRANSAC(
                    residual_threshold=self.config.ransac_residual_threshold,
                    min_inliers=self.config.ransac_min_inliers,
                    seed=self.config.ransac_seed,
                ),
            )
            estimator.fit(days[valid_idx], da[valid_idx])
            self.estimator_ = estimator
        with profile.stage("predict_rul", int(np.unique(ids).size)):
            # Work items are built in np.unique(ids) order and map_pumps
            # preserves submission order, so the dict iterates pumps in
            # sorted order.
            rul: dict[object, RULPrediction] = {}
            if estimator.n_models:
                items = []
                for pump in np.unique(ids):
                    member = np.nonzero((ids == pump) & valid)[0]
                    if member.size:
                        items.append((pump, days[member], da[member]))
                rul = self.executor.map_pumps(estimator.predict, items)

        profile.count("fleet_workers", self.executor.max_workers)

        return PipelineResult(
            valid_mask=valid,
            offsets=offsets,
            rms=features.rms,
            peaks=peaks,
            psd=features.psd,
            psd_rows=features.psd_rows,
            da=da,
            zones=zones,
            zone_thresholds=classifier.thresholds_,
            zone_d_threshold=zone_d_threshold,
            lifetime_models=estimator.models_,
            rul=rul,
        )

