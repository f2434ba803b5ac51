"""Streaming anomaly detectors over matrix profile distances.

Two architectures share the alarm vocabulary:

* NaiveDetector: fixed-length Frame buffer queried against a trailing History
  buffer every hop; no gait awareness, so it also fires on non-step motion.
  It is pushed the scalars of its config's signal; History is set in
  seconds and held as round(history_len_s * rate) samples, and its end
  overlaps the Frame's first OVERLAP_FRACTION.
  Both buffers are views of one array of the last readings, rebuilt each
  hop. Once that array is full the Frame moves by exactly hop readings, so
  each hop-long block of it keeps its dot products with the History
  windows, and a hop correlates only its newest block and the
  frame_len % hop readings before its oldest. A hop then takes the running
  sums of History afresh, as distance_profile does (sums carried from hop
  to hop would round differently), and the finish the growth rows use.
* StepGatedDetector: segments steps first, accumulates the live step in a
  Current buffer, and, once it spans MIN_QUERY_MS, queries it (with
  subsequence length equal to the buffer length) against a History of
  previously completed step signatures. One alarm at most per step.

History is one contiguous buffer holding the admitted chunks back to back,
rebuilt on admission and eviction. History does not change while a step is
open, and each score row of the step extends the previous one's query by
one sample. The Current buffer is a preallocated float64 array that gains
one reading per score row, and History is handed a view of it. So the first
row of a step (the seed row) takes one sliding dot product of the query
against the buffer, and each later row (a growth row) adds one term to
every window's dot product with the query; both keep the query's mean and
variance (Welford). Either row then ranks the windows from two tables that
hold, per query length from the shortest query on, each window's sum and
1 / sqrt(m*S2 - S1^2), S2 the sum of its squares. Each chunk's columns of
the tables are built once, from the chunk's own running sums, when it is
admitted; admission drops the evicted chunks' columns and flush drops the
tables, which take 16 bytes per row and History reading. Where the tables
cannot answer (see _History) a seed row takes one distance profile over
the buffer, and a growth row finishes in mp._nearest, which ranks the
windows from running sums of the whole buffer; a naive hop finishes there
too. Every row returns the smallest
entry of the distance profile the dot products would give, with its
conventions and its exact recomputation of near-duplicates
(1 - rho <= 1e-6, a band that scales with sqrt(m)). History windows that
straddle a chunk boundary splice two signatures together and are dropped
before taking the minimum. While the Current buffer is longer than every
chunk there is no reference window, and those samples go unscored.

Scores are normalized by the z-normalized distance ceiling 2*sqrt(m) so one
threshold stays meaningful while m varies.

Alarms and score rows are AlarmEvent and TraceRecord NamedTuples, so they
unpack and compare like tuples. A push that raises (a reading whose
projection is not finite raises DataError) leaves the detector unchanged:
the rejected reading takes no sample_index, and the next reading gets the
one it would have had. In both detectors flush ends the stream: a push
after it raises ValueError before any state changes, and a second flush
does nothing more.

The step-gated detector's admission policy is two methods, chosen so a
freshly started system cannot alarm on silence and consecutive anomalies
stay detectable. _admission decides what a segmentation event admits:

* At the first step's start, while History is empty, everything since the
  base enters as one provisional chunk. It keeps early steps comparable and
  is evicted as soon as a clean signature exists.
* At a step's end, its signature [start, end) enters unless the step's peak
  score exceeded the admission guard: suspect steps are quarantined, else
  one anomaly would mask every identical follow-up. The guard is a number of
  its own, below the default alarm threshold so that borderline anomalies
  stay out of the reference memory even when they do not alarm. It never
  follows the alarm threshold: History evolves the same at every threshold,
  which is what lets a recorded trace be re-thresholded faithfully.
* A step that ends longer than HOLD_RATIO times History's longest clean
  chunk was scored on its first readings alone, so it is held: it neither
  enters nor counts as suspect. This also bounds how fast the window tables
  can grow.

_set_threshold decides the envelope maximum that the threshold of the
segmenter (a default StepDetector, whose recompute_threshold owns the rule)
follows: the largest env_max of the History chunks, or, while History is
empty and BOOTSTRAP_HORIZON_S of silence-dominated data has passed, the
largest |reading| pushed, which is the largest envelope value.
_History evicts whole chunks FIFO once retained samples exceed the cap.
prime_history admits the steps of a clean reference in order, each with its
envelope maximum as a streamed step has, so the cap keeps the last.

The step-gated detector runs no envelope. The segmenter only compares each
envelope value, the largest |reading| over a window of w readings (w the
envelope window), with the step threshold, and the value that push k
finalizes covers readings [k - w + 1, k]. So the detector counts _calm, the
run of readings at or under the threshold that ends at the newest one,
recounted over the last w readings whenever the threshold moves. That
position is over the threshold iff _calm < min(w, k + 1), and a flushed
tail position p of n readings iff _calm < n - max(0, p - (w-1)//2).
Between steps most pushes are quiet, and a quiet push only stores and
counts its reading: History is set, no step is open, the segmenter has no
pending merge and _calm >= w, so feeding the position would only count it
(StepDetector.skip_quiet counts it instead).
No envelope value is stored: a chunk [s, e) takes as env_max the largest
|reading| over [s - (w-1)//2, e - 1 + w//2], the readings its envelope
windows cover, which is the largest envelope value over the chunk. So the
readings buffer keeps (w-1)//2 readings before its base.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import UNIFORMITY_TOL
from .errors import DataError
from .mp import (
    DEFAULT_EPS,
    TimeSeries,
    _nearest,
    _nearest_from_table,
    _rounding_floor,
    _sums,
    _window_block,
    distance_profile,
    sliding_dot_product,
)
from .signal import (
    DEFAULT_ENVELOPE_MS,
    SensorSample,
    SignalSelector,
    envelope_window_samples,
    project,
)
from .steps import STARTED, StepDetector, segment_series

DEFAULT_DISCORD_THRESHOLD = 0.5
# the share of the naive Frame that History's end overlaps
OVERLAP_FRACTION = 0.25
# the shortest step-gated query, in ms: shorter ones are not scored
MIN_QUERY_MS = 250.0
# the envelope readings the step-gated detector sees before it sets its
# first step threshold from them, in seconds, when History is empty
BOOTSTRAP_HORIZON_S = 3.0
# an ended step longer than this times History's longest clean chunk was
# scored on a prefix alone, and is held: neither admitted nor quarantined
HOLD_RATIO = 1.5


class AlarmEvent(NamedTuple):
    """One threshold crossing of the normalized discord score."""

    sample_index: int
    time_s: float
    score: float
    query_len: int


class TraceRecord(NamedTuple):
    """One scored detector update; step_ordinal is None for the naive mode."""

    sample_index: int
    query_index: int
    step_ordinal: int | None
    query_len: int
    score: float


# -- naive frame/history detector ------------------------------------------


@dataclass(frozen=True)
class NaiveDetectorConfig:
    frame_len: int = 100
    hop: int = 10
    history_len_s: float = 10.0
    discord_threshold: float = DEFAULT_DISCORD_THRESHOLD
    signal: SignalSelector = field(default_factory=SignalSelector)

    def __post_init__(self):
        if self.frame_len < 3:
            raise ValueError("frame_len must be at least 3")
        if self.hop < 1:
            raise ValueError("hop must be at least 1")
        if not (0 < self.history_len_s < math.inf):
            raise ValueError("history_len_s must be positive and finite")
        if not (0 <= self.discord_threshold <= 1):
            raise ValueError("discord_threshold must be in [0, 1]")

    @property
    def overlap(self) -> int:
        return int(OVERLAP_FRACTION * self.frame_len)

    @property
    def warmup(self) -> int:
        """Samples needed before the first evaluation: a full frame plus a
        frame's worth of non-shared history."""
        return 2 * self.frame_len - self.overlap


class NaiveDetector:
    """Frame-vs-History hop detector; scores every hop once warmed up.

    Readings collect in a list between hops. A hop appends them to a float64
    array of the last ``keep`` readings, of which Frame and History are
    views, and takes the running sums (mp._sums) of History. The score is
    the Frame's dot products with History (_products), finished from those
    sums by mp._nearest, the finish the step-gated growth rows use. A
    non-finite reading raises DataError at every hop while it is among the
    last keep readings; no state carries it into a later hop.
    """

    def __init__(self, config: NaiveDetectorConfig, sample_rate_hz: float):
        if not (0 < sample_rate_hz < math.inf):
            raise ValueError("sample_rate_hz must be positive and finite")
        # History in samples
        self.history_len = round(config.history_len_s * sample_rate_hz)
        if self.history_len < 2 * config.frame_len:
            raise ValueError(
                "history_len_s must span at least 2*frame_len samples, "
                f"got {self.history_len} at {sample_rate_hz:g} Hz"
            )
        self.cfg = config
        self.sample_rate_hz = sample_rate_hz
        self._keep = self.history_len + config.frame_len - config.overlap
        self._readings = np.empty(0)
        self._block: list[float] = []
        self._count = 0
        self._due = config.warmup
        self._ended = False
        # the Frame's whole hop-long blocks, where two or more of them save
        # arithmetic over one correlate; their dot products, kept in _ring
        q = config.frame_len // config.hop
        self._blocks = q if q >= 2 and config.hop > 1 else 0
        self._ring: np.ndarray | None = None
        self._newest = 0
        self.trace: list[TraceRecord] = []

    def push(self, value: float) -> tuple[AlarmEvent, ...]:
        if self._ended:
            raise ValueError("push after flush: the stream has ended")
        self._block.append(float(value))
        self._count += 1
        if self._count < self._due:
            return ()
        return self._hop()

    def _hop(self) -> tuple[AlarmEvent, ...]:
        cfg, keep, m = self.cfg, self._keep, self.cfg.frame_len
        # only the last keep readings are ever scored
        readings = np.concatenate((self._readings, self._block[-keep:]))[-keep:]
        self._readings = readings
        self._block.clear()
        self._due = self._count + cfg.hop
        if not np.isfinite(readings).all():
            self._ring = None
            raise DataError("non-finite reading among the naive detector's last readings")
        # history ends overlap samples into the frame, per the buffer layout
        history = readings[: readings.size - (m - cfg.overlap)]
        frame = readings[readings.size - m :]
        # frame.mean() and frame.std()'s arithmetic, without their wrappers
        mu_q = float(np.add.reduce(frame)) / m
        dev = frame - mu_q
        best = _nearest(
            self._products(frame, history),
            frame,
            mu_q,
            math.sqrt(float(np.add.reduce(dev * dev)) / m),
            history,
            _sums(history),
        )
        score = best / (2.0 * math.sqrt(m))
        idx = self._count - 1
        self.trace.append(TraceRecord(idx, idx, None, m, score))
        if score > cfg.discord_threshold:
            return (AlarmEvent(idx, idx / self.sample_rate_hz, score, m),)
        return ()

    def _products(self, frame: np.ndarray, history: np.ndarray) -> np.ndarray:
        """The Frame's dot product with every History window. Once the last
        keep readings are all buffered, the Frame sits a fixed lag after
        History and moves by exactly hop, so each hop-long block of it has
        the same products at every later hop. The ring keeps the q blocks'
        rows twice over, so the q in Frame order are one view, and their
        sum, oldest first, plus the frame_len % hop readings before them is
        the hop's. Only the newest block and that remainder are correlated;
        the ring is rebuilt by the same calls whenever a hop did not add to
        it."""
        q = self._blocks
        if not q or history.size < self.history_len:
            self._ring = None
            return sliding_dot_product(frame, history)
        hop, m = self.cfg.hop, frame.size
        r, k = m - q * hop, history.size - m + 1

        def block(a: int, taps: int) -> np.ndarray:
            return np.correlate(history[a : a + k - 1 + taps], frame[a : a + taps])

        ring = self._ring
        if ring is None:
            ring = self._ring = np.empty((2 * q, k))
            for b in range(q):
                ring[b] = ring[b + q] = block(r + b * hop, hop)
            self._newest = q - 1
        else:
            p = self._newest = (self._newest + 1) % q
            ring[p] = ring[p + q] = block(m - hop, hop)
        qt = np.add.reduce(ring[self._newest + 1 : self._newest + 1 + q], axis=0)
        if r:
            qt += block(0, r)
        return qt

    def flush(self) -> tuple[AlarmEvent, ...]:
        """End the stream: a later push raises ValueError."""
        self._ended = True
        return ()


# -- step-gated detector ---------------------------------------------------


@dataclass(frozen=True)
class StepSystemConfig:
    sample_rate_hz: float = 100.0
    signal: SignalSelector = field(default_factory=SignalSelector)
    history_len_s: float = 10.0
    discord_threshold: float = DEFAULT_DISCORD_THRESHOLD
    envelope_window_ms: float = DEFAULT_ENVELOPE_MS
    admission_guard: float = 0.35

    def __post_init__(self):
        if not (0 < self.sample_rate_hz < math.inf and 0 < self.history_len_s < math.inf):
            raise ValueError("sample_rate_hz and history_len_s must be positive and finite")
        if not (0 <= self.discord_threshold <= 1):
            raise ValueError("discord_threshold must be in [0, 1]")
        # a number, never None: a guard that followed the alarm threshold
        # would make History, and so every later score, depend on it
        if self.admission_guard is None or not (0 <= self.admission_guard <= 1):
            raise ValueError("admission_guard must be a number in [0, 1]")
        if self.min_query_len < 3:
            raise ValueError(
                f"sample_rate_hz must put at least 3 samples in {MIN_QUERY_MS:g} ms"
            )

    @property
    def min_query_len(self) -> int:
        return round(MIN_QUERY_MS * self.sample_rate_hz / 1000.0)

    @property
    def history_len(self) -> int:
        return round(self.history_len_s * self.sample_rate_hz)

    @property
    def bootstrap_horizon(self) -> int:
        return round(BOOTSTRAP_HORIZON_S * self.sample_rate_hz)


@dataclass
class _Chunk:
    values: np.ndarray
    env_max: float
    provisional: bool = False


class _History:
    """Admitted chunks stored once, back to back in one float64 buffer.

    Each chunk's values are a view into the buffer, which is rebuilt only on
    admission or eviction. room[j] counts the samples from j to the end of
    j's chunk, so the window of length m at j lies inside one chunk, and is
    a reference signature, iff room[j] >= m.

    Scoring carries one growing query: the first best_distance call after
    reset_query is a seed row (one sliding dot product and the query's
    moments), and each later call extends the seed's dot products and query
    moments by the samples the query gained since (a growth row). The caller
    resets whenever a new query starts; admit resets, because the rows index
    the old buffer.

    Both kinds of row read two window tables aligned with the buffer, one
    row per query length m from shortest (the seed row's length in the
    detector) to the longest chunk: s1[r, j], the sum of the window of
    length m = shortest + r at j, and inv[r, j], 1 / sqrt(m*S2 - S1^2) for
    that window, S2 being the sum of its squares. Both are 0 wherever the
    window leaves its chunk. A History that holds a provisional chunk, or a
    chunk longer than the cap, holds that chunk alone and keeps no tables;
    the next admission evicts it. Otherwise each chunk's entries come from
    its own running sums, read through one strided view, in a few
    vectorised calls when it is admitted (mp._window_block); admission then
    shifts the tables left past the evicted chunks' columns and writes the
    new chunk's block after the rest, so no held chunk's entries are
    computed twice. The array is replaced only when a chunk longer than
    every one held needs more rows, when the buffer needs more columns, or
    when the array is over twice the size History needs.
    The tables take 16 * rows * columns bytes.

    (qt - mu_q * s1[r]) * inv[r] is each window's correlation with the
    query times the query's stdev, so a growth row costs two NumPy calls to
    grow and four to rank (mp._nearest_from_table): a multiply, an add, a
    multiply and a max. A growth row falls back to mp._nearest over running
    sums of the whole buffer, and a seed row to one distance_profile over
    the buffer masked to windows inside a chunk, when:
    the query is constant; m is outside the tables; some held chunk has at
    that length a window whose m*S2 - S1^2 is at or under
    mp._rounding_floor over the buffer, the one rule by which mp._nearest
    declines windows too, which also covers every constant window
    (_usable); every window inside a chunk ranks at or under 0, i.e. the
    best straddles a chunk; or the best is a near-duplicate. flush drops
    the tables (release_tables) and keeps the chunks and the buffer.
    """

    def __init__(self, shortest: int = 3):
        self.chunks: list[_Chunk] = []
        self.buffer = np.empty(0)
        self.room = np.empty(0, dtype=np.int64)
        self.longest = 0
        # the length of table row 0, the seed row's
        self._lo = shortest
        # s1 and inv, columns past the buffer's end unused
        self._tables = np.empty((2, 0, 0))
        self._s1, self._inv = self._tables
        # per held chunk and table row, the least m*S2 - S1^2 of its windows
        # (inf where it has none), and whether rows of that length use
        # the tables
        self._least = np.empty((0, 0))
        self._usable: list[bool] = []
        # running sums of the buffer, taken on the first fallback after an
        # admission
        self._window_sums = None
        self._scratch = np.empty(0)
        self._qt = np.empty(0)
        self.reset_query()

    def admit(self, chunk: _Chunk, cap: int) -> None:
        """Append a chunk, or replace the provisional one with it, then
        evict whole chunks FIFO while more than ``cap`` samples are held. A
        provisional chunk only ever enters an empty History."""
        chunks = [c for c in self.chunks if not c.provisional] + [chunk]
        sizes = [c.values.size for c in chunks]
        total = sum(sizes)
        while len(chunks) > 1 and total > cap:
            chunks.pop(0)
            total -= sizes.pop(0)
        # the held chunks that stay are the old buffer's last `carried` readings
        dropped = len(self.chunks) - (len(chunks) - 1)
        c = sizes[-1]
        carried = total - c
        gone = self.buffer.size - carried
        self.buffer = np.concatenate((self.buffer[gone:], chunk.values))
        self.room = np.concatenate((self.room[gone:], np.arange(c, 0, -1)))
        end = 0
        for held, size in zip(chunks, sizes):
            held.values = self.buffer[end : end + size]
            end += size
        self.longest = max(sizes)
        self.chunks = chunks
        self._window_sums = None
        self._scratch = np.empty(total)
        self._carry_tables(dropped, gone, cap)
        self.reset_query()

    def _carry_tables(self, dropped: int, gone: int, cap: int) -> None:
        """Shift the tables left past the ``gone`` columns of the evicted
        chunks (one move of the whole array, whose rows' ends then hold
        leftovers past the buffer) and write the newest chunk's block after
        the rest. A History that holds a provisional chunk, or a chunk longer
        than ``cap``, holds that chunk alone and keeps no tables. The array
        is replaced, sized to hold History up to its cap, when it needs more
        rows or columns or is over twice the size it needs, so it takes at
        most 32 * L * cap bytes, L the longest chunk held. A step longer
        than HOLD_RATIO times History's longest clean chunk is held, not
        admitted, so while History holds a clean chunk an admission raises
        L by at most that factor."""
        if self.chunks[-1].provisional or self.longest > cap:
            return self.release_tables()
        lo, n = self._lo, self.buffer.size
        new = self.chunks[-1]
        need = max(0, self.longest - lo + 1)
        carried = n - new.values.size
        tables = self._tables
        rows, width = tables.shape[1:]
        fit = max(n, min(cap, 4 * n))
        if need > rows or n > width or rows > 2 * need or width > 2 * fit:
            grown = np.zeros((2, need, fit))
            g = min(rows, need)
            grown[:, :g, :carried] = tables[:, :g, gone : gone + carried]
            tables = self._tables = grown
            self._s1, self._inv = tables
            rows = g
        elif gone:
            flat = tables.reshape(-1)
            flat[:-gone] = flat[gone:]
        height = tables.shape[1]
        least = np.empty((len(self.chunks), height))
        least[:-1, :rows] = self._least[dropped:, :rows]
        least[:-1, rows:] = np.inf
        least[-1] = np.inf
        self._least = least
        block = tables[:, :, carried:n]
        if new.values.size < lo:
            block[...] = 0.0
        else:
            _window_block(new.values, lo, block, least[-1])
        m = np.arange(lo, lo + height, dtype=np.float64)
        floor = _rounding_floor(m, n, float(self.buffer @ self.buffer))
        self._usable = (least.min(axis=0, initial=np.inf) > floor).tolist()

    def release_tables(self) -> None:
        """Drop the tables; every growth row falls back. An admission builds
        the new chunk's block alone, so only an untabled History, whose one
        chunk the next admission evicts, and flush, after which no row is
        scored, call it."""
        self._tables = np.empty((2, 0, 0))
        self._s1, self._inv = self._tables
        self._least = np.empty((0, 0))
        self._usable = []

    def reset_query(self) -> None:
        """Drop the carried query; the next best_distance is a seed row."""
        self._m = 0
        self._mean = 0.0
        self._m2 = 0.0

    def best_distance(self, query: np.ndarray) -> float:
        """Smallest distance from ``query`` to a window inside one chunk;
        +inf when no chunk is as long as the query. After the first call
        since reset_query, ``query`` must extend the previous one."""
        m = query.size
        if m > self.longest:
            return math.inf
        if not self._m:
            return self._seed(query)
        for x in query[self._m :].tolist():
            self._grow(x)
        return self._best_of_growth_row(query)

    def _seed(self, query: np.ndarray) -> float:
        self._qt = sliding_dot_product(query, self.buffer)
        for x in query.tolist():
            self._welford(x)
        best = self._best_from_table(math.sqrt(self._m2 / self._m))
        if best is not None:
            return best
        # distance_profile, not _nearest: a traced walk must call it through
        # this module (perfbench/test_perfbench.py)
        m = query.size
        d = distance_profile(query, self.buffer)
        return float(d[self.room[: d.size] >= m].min())

    def _welford(self, x: float) -> None:
        self._m += 1
        delta = x - self._mean
        self._mean += delta / self._m
        self._m2 += delta * (x - self._mean)

    def _grow(self, x: float) -> None:
        """Lengthen the query by x: every window gains one term of its dot
        product, and the window that ran off the buffer's end is dropped."""
        self._welford(x)
        k = self.buffer.size - self._m + 1
        self._qt = self._qt[:k]
        term = np.multiply(self.buffer[self._m - 1 :], x, out=self._scratch[:k])
        self._qt += term

    def _best_from_table(self, sd_q: float) -> float | None:
        """The carried query's row ranked from the tables, or None where
        they cannot answer it; ``sd_q`` is the query's stdev."""
        m = self._m
        r = m - self._lo
        if sd_q > DEFAULT_EPS and 0 <= r < len(self._usable) and self._usable[r]:
            k = self._qt.size
            return _nearest_from_table(
                self._qt, self._mean, sd_q, m, self._s1[r, :k], self._inv[r, :k], self._scratch[:k]
            )
        return None

    def _best_of_growth_row(self, query: np.ndarray) -> float:
        sd_q = math.sqrt(self._m2 / self._m)
        best = self._best_from_table(sd_q)
        if best is not None:
            return best
        if self._window_sums is None:
            self._window_sums = _sums(self.buffer)
        return _nearest(
            self._qt, query, self._mean, sd_q, self.buffer, self._window_sums, self.room
        )


class StepGatedDetector:
    """Push SensorSamples in order; alarms come back as they are raised.

    Inspection surfaces for tests and tooling: .trace (all scored updates),
    .step_events (segmentation events with emission order), .admissions
    (History chunk admissions with emission order).
    """

    def __init__(self, config: StepSystemConfig = StepSystemConfig()):
        self.cfg = config
        fs = config.sample_rate_hz
        self._signal = config.signal
        self._min_query_len = config.min_query_len
        w = self._window = envelope_window_samples(config.envelope_window_ms, fs)
        # an envelope value covers readings [i - _left, i + _right]
        self._left, self._right = (w - 1) // 2, w // 2
        self._step = StepDetector(fs)
        self._horizon = config.bootstrap_horizon
        # _sig holds the readings from index _phys on; the ones more than
        # _left before _base are dead and trimmed in batches of >= _horizon
        self._sig: list[float] = []
        self._base = 0
        self._phys = 0
        self._raw_count = 0
        self._env_count = 0
        # the largest |reading| pushed outside the quiet path: the cold
        # start's level, read only while History is empty, before any quiet push
        self._env_peak = 0.0
        # the run of readings at or under the step threshold that ends at
        # the newest, counted back at most w readings when the threshold moves
        self._calm = 0
        self._history = _History(self._min_query_len)
        # the Current buffer: _current[:_current_len] holds the open step's
        # readings that its last score row saw
        self._current = np.empty(0)
        self._current_len = 0
        self._in_step = False
        self._step_start = 0
        self._step_ordinal = -1
        self._step_peak = 0.0
        self._seq = 0
        self._ended = False
        self.trace: list[TraceRecord] = []
        self.step_events: list[dict] = []
        self.admissions: list[dict] = []

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- history ----------------------------------------------------------

    def _admission(self, ev) -> _Chunk | None:
        """The chunk a segmentation event admits, or None: at a start while
        History is empty, everything since the base, as a provisional chunk;
        at an end, the step, unless its peak score exceeded the guard or it
        is held, longer than HOLD_RATIO times the longest clean chunk."""
        if ev.kind == STARTED:
            if self._history.chunks or ev.index <= self._base:
                return None
            start = self._base
        else:
            start = self._step_start
            clean = [c.values.size for c in self._history.chunks if not c.provisional]
            if self._step_peak > self.cfg.admission_guard or (
                clean and ev.index - start > HOLD_RATIO * max(clean)
            ):
                return None
        values, env_max = self._sig_slice(start, ev.index), self._env_max(start, ev.index)
        return _Chunk(values, env_max, provisional=ev.kind == STARTED)

    def _admit(self, chunk: _Chunk, raw_i: int) -> None:
        self._history.admit(chunk, self.cfg.history_len)
        self._set_threshold()
        entry = {"seq": self._next_seq(), "sample_index": raw_i, "length": chunk.values.size}
        entry["provisional"] = chunk.provisional
        self.admissions.append(entry)

    def _set_threshold(self) -> None:
        """Set the step threshold from the envelope maximum it follows:
        History's largest env_max, or, while History is empty and the bootstrap
        horizon has passed since the base, the largest |reading| pushed. When
        it moves, recount _calm over the last w readings."""
        if self._history.chunks:
            level = max(c.env_max for c in self._history.chunks)
        elif self._env_count - self._base >= self._horizon:
            level = self._env_peak
        else:
            return
        old = self._step.threshold
        threshold = self._step.recompute_threshold(level)
        if threshold != old:
            calm = 0
            for x in reversed(self._sig[-self._window :]):
                if abs(x) > threshold:
                    break
                calm += 1
            self._calm = calm

    def prime_history(self, reference) -> None:
        """Admit the steps of a clean reference before streaming, cut by
        segment_series with this detector's envelope window and StepDetector's
        defaults; a reference with no step raises ValueError. A TimeSeries
        reference must be sampled at the configured rate, within UNIFORMITY_TOL."""
        if self._raw_count:
            raise ValueError("prime_history must run before any samples are pushed")
        rate = self.cfg.sample_rate_hz
        if isinstance(reference, TimeSeries):
            if abs(reference.sample_rate_hz - rate) >= UNIFORMITY_TOL * rate:
                raise ValueError(
                    f"reference sampled at {reference.sample_rate_hz:g} Hz, "
                    f"the detector at {rate:g} Hz"
                )
        else:
            reference = TimeSeries(reference, rate)
        steps, env = segment_series(reference.values, self._window, StepDetector(rate))
        if not steps:
            raise ValueError("no step found in the reference")
        for s, e in steps:
            self._admit(_Chunk(reference.values[s:e], max(env[s:e])), raw_i=-1)

    # -- buffer plumbing ---------------------------------------------------

    def _rebase(self, new_base: int) -> None:
        if new_base <= self._base:
            return
        self._base = new_base
        if new_base - self._left - self._phys >= self._horizon:
            self._trim()

    def _trim(self) -> None:
        # keep the _left readings before the base that its envelope covers
        drop = self._base - self._left - self._phys
        del self._sig[:drop]
        self._phys += drop

    def _sig_slice(self, start: int, end: int) -> np.ndarray:
        return np.array(self._sig[start - self._phys : end - self._phys])

    def _env_max(self, start: int, end: int) -> float:
        """The largest envelope value over [start, end): the largest
        |reading| its windows cover, [start - _left, end - 1 + _right]."""
        lo = max(start - self._left, 0) - self._phys
        return max(map(abs, self._sig[lo : end + self._right - self._phys]))

    def _current_query(self, i: int) -> np.ndarray:
        """The open step's readings up to logical index i, as a view of the
        Current buffer: a row that follows the previous one writes one
        reading, the first row of a step copies them all."""
        m = i + 1 - self._step_start
        if m > self._current.size:
            grown = np.empty(2 * m)
            grown[: self._current_len] = self._current[: self._current_len]
            self._current = grown
        if self._current_len == m - 1:
            self._current[m - 1] = self._sig[i - self._phys]
        else:
            self._current[:m] = self._sig[self._step_start - self._phys : i + 1 - self._phys]
        self._current_len = m
        return self._current[:m]

    # -- streaming ---------------------------------------------------------

    def push(self, sample: SensorSample) -> tuple[AlarmEvent, ...]:
        if self._ended:
            raise ValueError("push after flush: the stream has ended")
        value = project(sample, self._signal)
        a = abs(value)
        if a <= self._step.threshold:
            calm = self._calm + 1
            # a quiet reading: it and the w - 1 before it are at or under the
            # threshold, so the envelope value its push finalizes is too, and
            # with History set and no step open or pending that value can
            # only be counted
            if calm >= self._window and self._history.chunks and self._step.skip_quiet():
                self._calm = calm
                self._raw_count += 1
                self._sig.append(value)
                i = self._env_count + 1
                self._env_count = i
                # _rebase(i - _horizon), as _absorb_env calls it, inlined:
                # a call per quiet push costs about a tenth of the push
                base = i - self._horizon
                if base > self._base:
                    self._base = base
                    if base - self._left - self._phys >= self._horizon:
                        self._trim()
                return ()
        elif not math.isfinite(value):
            # before any state changes, so the detector stays as it was
            raise DataError("non-finite sample in envelope stream")
        else:
            calm = 0
        self._calm = calm
        raw_i = self._raw_count
        self._raw_count = raw_i + 1
        self._sig.append(value)
        if a > self._env_peak:
            self._env_peak = a
        if raw_i < self._right:
            return ()
        # position raw_i - w//2 covers readings [raw_i - w + 1, raw_i]
        return self._absorb_env(calm < min(self._window, raw_i + 1), raw_i)

    def flush(self) -> tuple[AlarmEvent, ...]:
        """Feed the envelope positions whose windows run past the end,
        settle open segmentation state and end the stream: a later push
        raises ValueError. History keeps its chunks and buffer but drops its
        window tables."""
        self._ended = True
        n = self._raw_count
        raw_i = max(0, n - 1)
        alarms: list[AlarmEvent] = []
        for p in range(self._env_count, n):
            # position p covers readings [p - (w-1)//2, n - 1]
            alarms.extend(self._absorb_env(self._calm < n - max(0, p - self._left), raw_i))
        for ev in self._step.flush():
            self._on_step_event(ev, raw_i)
        self._history.release_tables()
        return tuple(alarms)

    def _absorb_env(self, over: bool, raw_i: int) -> tuple[AlarmEvent, ...]:
        """Feed the next envelope position, over the step threshold or not."""
        i = self._env_count
        self._env_count = i + 1
        # feed only compares its sample with the threshold, which is at
        # least THRESHOLD_FLOOR > 0, so these two stand in for the value
        for ev in self._step.feed(math.inf if over else 0.0):
            self._on_step_event(ev, raw_i)

        if self._in_step:
            return self._maybe_score(i, raw_i)
        if not self._history.chunks:
            # cold start: no admitted steps yet, adapt from what was seen
            self._set_threshold()
        if i + 1 - self._base > self._horizon:
            self._rebase(i + 1 - self._horizon)
        return ()

    def _maybe_score(self, i: int, raw_i: int) -> tuple[AlarmEvent, ...]:
        """Score the open step up to logical index i; call only while a
        step is open."""
        m = i + 1 - self._step_start
        if m < self._min_query_len:
            return ()
        # the subsequence length is the Current buffer length, scored with one
        # distance profile over the whole History buffer; windows straddling a
        # chunk boundary are not reference signatures and are dropped. Once
        # the buffer outgrows every chunk there is no reference window left
        # and the sample goes unscored
        best = self._history.best_distance(self._current_query(i))
        if not math.isfinite(best):
            return ()
        score = best / (2.0 * math.sqrt(m))
        # one alarm per step: the first row above the threshold, while the
        # step's peak so far is not
        first = score > self.cfg.discord_threshold >= self._step_peak
        self._step_peak = max(self._step_peak, score)
        self.trace.append(TraceRecord(raw_i, i, self._step_ordinal, m, score))
        if first:
            return (AlarmEvent(raw_i, raw_i / self.cfg.sample_rate_hz, score, m),)
        return ()

    def _on_step_event(self, ev, raw_i: int) -> None:
        chunk = self._admission(ev)
        if chunk is not None:
            self._admit(chunk, raw_i)
        self._rebase(ev.index)
        self._in_step = ev.kind == STARTED
        if self._in_step:
            self._history.reset_query()
            self._current_len = 0
            self._step_start = ev.index
            self._step_ordinal += 1
            self._step_peak = 0.0
        self.step_events.append(
            {"seq": self._next_seq(), "kind": ev.kind, "index": ev.index, "sample_index": raw_i}
        )


# -- replay and post-hoc thresholding --------------------------------------


@dataclass
class ReplayResult:
    alarms: list[AlarmEvent]
    trace: list[TraceRecord]
    wall_s: float


def replay(detector, recording) -> ReplayResult:
    """Push a whole recording through a detector, timing the hot path.

    Each detector reads the signal its own config selects. A step-gated one
    is pushed SensorSamples, built from the recording's rows one block at a
    time, and projects each itself; the naive one is pushed the recording
    projected on its cfg.signal. wall_s covers that ingest as well as push
    and flush.
    """
    import time

    alarms: list[AlarmEvent] = []
    t0 = time.perf_counter()
    if isinstance(detector, StepGatedDetector):
        stream = recording.iter_samples()
    else:
        stream = recording.project(detector.cfg.signal).values
    for x in stream:
        alarms.extend(detector.push(x))
    alarms.extend(detector.flush())
    wall = time.perf_counter() - t0
    return ReplayResult(alarms, list(detector.trace), wall)


def alarms_from_trace(
    trace: list[TraceRecord], threshold: float, sample_rate_hz: float
) -> list[AlarmEvent]:
    """Re-threshold a scored trace; reproduces online alarms exactly.

    Step-mode records latch one alarm per step ordinal (first crossing);
    naive records alarm on every row above the threshold.
    """
    alarms = []
    latched: int | None = None
    for rec in trace:
        if rec.score <= threshold:
            continue
        if rec.step_ordinal is not None:
            if rec.step_ordinal == latched:
                continue
            latched = rec.step_ordinal
        alarms.append(
            AlarmEvent(rec.sample_index, rec.sample_index / sample_rate_hz, rec.score, rec.query_len)
        )
    return alarms


# -- line-delimited serialization ------------------------------------------


def dump_jsonl(records, path) -> None:
    """Write one JSON object per record, keys in field order."""
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r._asdict()) + "\n")


def load_jsonl(cls, path) -> list:
    """Read the records dump_jsonl wrote back as instances of cls."""
    with open(path) as f:
        return [cls(**json.loads(line)) for line in f if line.strip()]
