"""Streaming anomaly detectors over matrix profile distances.

Two architectures share the alarm vocabulary:

* NaiveDetector: fixed-length Frame buffer queried against a trailing History
  buffer every hop; no gait awareness, so it also fires on non-step motion.
  It is pushed the scalars of its config's signal; History is set in
  seconds and held as round(history_len_s * rate) samples, and its end
  overlaps the Frame's first OVERLAP_FRACTION.
  Both buffers are views of one array of the last readings, rebuilt each
  hop, and a hop costs one sliding dot product, the running sums of
  History, and the finish the growth rows use.
* StepGatedDetector: segments steps first, accumulates the live step in a
  Current buffer, and, once it spans MIN_QUERY_MS, queries it (with
  subsequence length equal to the buffer length) against a History of
  previously completed step signatures. One alarm at most per step.

History is one contiguous buffer holding the admitted chunks back to back,
rebuilt on admission and eviction. History does not change while a step is
open, and each score row of the step extends the previous one's query by
one sample. The Current buffer is a preallocated float64 array that gains
one reading per score row, and History is handed a view of it. So the first
row of a step (the seed row) is one distance profile over the buffer, and
each later row (a growth row) adds one term to every window's dot product
with the query and updates the query's mean and variance (Welford). It then
ranks the windows from two tables that hold, per query length, each
window's sum and 1 / sqrt(m*S2 - S1^2), S2 the sum of its squares. Each
chunk's columns of the tables are built once, from the chunk's own running
sums, when it is admitted; admission drops the evicted chunks' columns and
flush drops the tables, which take 16 bytes per row and History reading.
Where the tables cannot answer (see _History) the row finishes in
mp._nearest, which ranks the windows from running sums of the whole
buffer; a naive hop finishes there too. Every row returns the smallest
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

History admission rules for the step-gated detector, chosen so a freshly
started system cannot alarm on silence and consecutive anomalies stay
detectable:

* Everything before the first detected step enters History as one provisional
  chunk at the moment that step starts. It keeps early steps comparable and
  is evicted as soon as a clean signature exists.
* A completed step's signature [start, end) is admitted when its end event
  fires, unless the step's peak score exceeded the admission guard: suspect
  steps are quarantined, otherwise one anomaly would mask every identical
  follow-up. The guard is a number of its own, below the default alarm
  threshold so that borderline anomalies stay out of the reference memory
  even when they do not alarm. It never follows the alarm threshold: History
  evolves the same at every threshold, which is what lets a recorded trace
  be re-thresholded faithfully.
* Eviction is whole-chunk FIFO once total retained samples exceed the cap.
* prime_history admits the steps of a clean reference in order, each with
  its envelope maximum as a streamed step has, so the cap keeps the last.

Steps are segmented by a StepDetector with its default settings, which
owns the threshold rule (steps.StepDetector.recompute_threshold). Each
admission hands it the largest envelope maximum of the History chunks;
while History is still empty it is handed the envelope maximum seen so far,
the largest |reading| pushed, but only after BOOTSTRAP_HORIZON_S of
silence-dominated data has passed.

Between steps most step-gated pushes are quiet, and a quiet push only
stores and counts its reading. A reading is quiet when History is set, no
step is open and the segmenter has no pending merge, and it and the w - 1
readings before it (w the envelope window) are at or under the step
threshold, which has not fallen since the first of them was pushed (a
reading under a threshold stays under a higher one). The envelope value its
push would finalize covers exactly those w readings, so it is at or under
the threshold, and feeding it would only count it: the push skips the
envelope and the segmenter (StepDetector.skip_quiet counts it). The next push that
is not quiet, or flush, resumes the envelope from the last w readings.
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
    _table_index,
    _window_block,
    distance_profile,
    sliding_dot_product,
)
from .signal import (
    DEFAULT_ENVELOPE_MS,
    SensorSample,
    SignalSelector,
    StreamingEnvelope,
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
    one sliding dot product of Frame against History, finished from those
    sums by mp._nearest, the finish the step-gated growth rows use. A
    non-finite reading raises DataError at every hop while it is among the
    last keep readings; no state carries it into a later hop.
    """

    def __init__(self, config: NaiveDetectorConfig, sample_rate_hz: float):
        if not (sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
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
            raise DataError("non-finite reading among the naive detector's last readings")
        # history ends overlap samples into the frame, per the buffer layout
        history = readings[: readings.size - (m - cfg.overlap)]
        frame = readings[readings.size - m :]
        # frame.mean() and frame.std()'s arithmetic, without their wrappers
        mu_q = float(np.add.reduce(frame)) / m
        dev = frame - mu_q
        best = _nearest(
            sliding_dot_product(frame, history),
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
    reset_query is a seed row (one distance_profile call), and each later
    call extends the seed's dot products and query moments by the samples
    the query gained since (a growth row). The caller resets whenever a new
    query starts; admit resets, because the rows index the old buffer.

    Growth rows read two window tables aligned with the buffer, one row per
    query length m from shortest + 1 (shortest: the seed row's length) to
    the longest clean chunk: s1[r, j], the sum of the window of length
    m = shortest + 1 + r at j, and inv[r, j], 1 / sqrt(m*S2 - S1^2) for
    that window, S2 being the sum of its squares. Both are 0 wherever the
    window leaves its chunk. A provisional chunk has no entries, nor has a
    chunk longer than the cap, which is held alone. A clean chunk's
    entries come from its own running sums, in a few vectorised calls
    when it is admitted (mp._window_block); admission then shifts the
    tables left past the evicted chunks' columns and writes the new chunk's
    block after the rest, so no held chunk's entries are computed twice.
    The array is replaced only when a chunk longer than every clean one
    held needs more rows, when the buffer needs more columns, or when the
    array is over twice the size History needs. The tables take
    16 * rows * columns bytes.

    (qt - mu_q * s1[r]) * inv[r] is each window's correlation with the
    query times the query's stdev, so a growth row costs two NumPy calls to
    grow and four to rank (mp._nearest_from_table): a multiply, an add, a
    multiply and a max. The row falls back to mp._nearest over running sums
    of the whole buffer when:
    the query is constant; m is outside the tables; some held chunk has at
    that length a window whose m*S2 - S1^2 is at or under mp._nearest's
    floor, which bounds the running sums' rounding over the buffer and so
    also covers every window with no change of value (_usable); a held
    chunk has no entries; every window inside a chunk ranks at or under 0,
    i.e. the best straddles a chunk; or the best is a near-duplicate.
    release_tables drops the tables for good (flush calls it), and every
    later growth row falls back; the chunks and the buffer stay.
    """

    def __init__(self, shortest: int = 3):
        self.chunks: list[_Chunk] = []
        self.buffer = np.empty(0)
        self.room = np.empty(0, dtype=np.int64)
        self.longest = 0
        # the length of table row 0
        self._lo = shortest + 1
        # s1 and inv, columns past the buffer's end unused
        self._tables = np.empty((2, 0, 0))
        self._s1, self._inv = self._tables
        # per held chunk and table row, the least m*S2 - S1^2 of its windows
        # (inf where it has none or no entries), and whether growth rows of
        # that length use the tables
        self._least = np.empty((0, 0))
        self._usable: list[bool] = []
        self._provisional = False
        self._released = False
        # per chunk length: where each table entry's window ends in the
        # chunk's running sums, and the rows' lengths
        self._index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # running sums of the buffer, taken on the first fallback after an
        # admission
        self._window_sums = None
        self._scratch = np.empty(0)
        self._qt = np.empty(0)
        self.reset_query()

    def admit(self, chunk: _Chunk, cap: int) -> None:
        """Append a chunk (a clean one replaces provisional chunks), then
        evict whole chunks FIFO while more than ``cap`` samples are held."""
        if chunk.provisional or not self._provisional:
            chunks = self.chunks + [chunk]
        else:
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
        self._provisional = chunk.provisional
        self._window_sums = None
        self._scratch = np.empty(total)
        if not self._released:
            self._carry_tables(dropped, gone, cap)
        self.reset_query()

    def _carry_tables(self, dropped: int, gone: int, cap: int) -> None:
        """Shift the tables left past the ``gone`` columns of the evicted
        chunks (one move of the whole array, whose rows' ends then hold
        leftovers past the buffer) and write the newest chunk's block after
        the rest. Only clean chunks of at most ``cap`` readings have
        entries, which bounds the tables by about 32 * cap^2 bytes; a longer
        chunk is held alone and scored by the fallback. The array is
        replaced, sized to hold History up to its cap, when it needs more
        rows or columns or is over twice the size it needs."""
        lo, n = self._lo, self.buffer.size
        new = self.chunks[-1]
        untabled = self._provisional or self.longest > cap
        if untabled:
            sizes = [c.values.size for c in self.chunks if not c.provisional]
            longest = max([size for size in sizes if size <= cap], default=0)
        else:
            longest = self.longest
        need = max(0, longest - lo + 1)
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
        block, c = tables[:, :, carried:n], new.values.size
        if new.provisional or c > cap or c < lo:
            block[...] = 0.0
        else:
            if c not in self._index:
                if len(self._index) > 2 * len(self.chunks):
                    self._index.clear()
                self._index[c] = _table_index(c, lo)
            _window_block(new.values, self._index[c], block, least[-1])
        # mp._nearest's floor, from the whole buffer's readings and sum of squares
        m = np.arange(lo, lo + height, dtype=np.float64)
        per_m = _rounding_floor(n, float(self.buffer @ self.buffer))
        floor = np.maximum((2.0 * DEFAULT_EPS * m) ** 2, m * per_m)
        # a chunk without entries has windows the tables do not rank
        self._usable = [] if untabled else (least.min(axis=0, initial=np.inf) > floor).tolist()

    def release_tables(self) -> None:
        """Drop the tables, for good: later growth rows all fall back."""
        self._released = True
        self._tables = np.empty((2, 0, 0))
        self._s1, self._inv = self._tables
        self._least = np.empty((0, 0))
        self._usable = []
        self._index = {}
        self._window_sums = None

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
        m = query.size
        d = distance_profile(query, self.buffer)
        self._qt = sliding_dot_product(query, self.buffer)
        for x in query.tolist():
            self._welford(x)
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

    def _best_of_growth_row(self, query: np.ndarray) -> float:
        m = self._m
        sd_q = math.sqrt(self._m2 / m)
        r = m - self._lo
        if sd_q > DEFAULT_EPS and 0 <= r < len(self._usable) and self._usable[r]:
            k = self._qt.size
            best = _nearest_from_table(
                self._qt, self._mean, sd_q, m, self._s1[r, :k], self._inv[r, :k], self._scratch[:k]
            )
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
        w = envelope_window_samples(config.envelope_window_ms, fs)
        self._env_stream = StreamingEnvelope(w)
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
        # the largest |reading| of the pushes that are not quiet: the cold
        # start reads it while History is empty, when no push is quiet
        self._abs_max = 0.0
        # quiet pushes (see push): the readings in a row at or under the
        # step threshold since it last fell, the run a quiet push needs,
        # and whether the envelope has missed quiet readings
        self._calm = 0
        self._quiet_after = w
        self._env_behind = False
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

    def _admit(self, values: np.ndarray, env_max: float, provisional: bool, raw_i: int) -> None:
        self._history.admit(_Chunk(values, env_max, provisional), self.cfg.history_len)
        self._set_threshold(max(c.env_max for c in self._history.chunks))
        self.admissions.append(
            {
                "seq": self._next_seq(),
                "sample_index": raw_i,
                "length": int(values.size),
                "provisional": provisional,
            }
        )

    def _set_threshold(self, env_max: float) -> None:
        old = self._step.threshold
        # a reading at or under the old threshold may be over a lower one
        if self._step.recompute_threshold(env_max) < old:
            self._calm = 0

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
        window = self._env_stream.window_samples
        steps, env = segment_series(reference.values, window, StepDetector(rate))
        if not steps:
            raise ValueError("no step found in the reference")
        for s, e in steps:
            self._admit(reference.values[s:e], max(env[s:e]), provisional=False, raw_i=-1)

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
            # a quiet reading: it and the w - 1 before it are at or under a
            # threshold that has not fallen, so the envelope value its push
            # finalizes is too, and with History set and no step open or
            # pending that value can only be counted
            if calm >= self._quiet_after and self._history.chunks and self._step.skip_quiet():
                self._calm = calm
                self._env_behind = True
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
        else:
            # also every non-finite value
            calm = 0
        if self._env_behind and math.isfinite(value):
            self._resume_envelope()
        # the envelope validates the value before any state changes, so a
        # push that raises leaves the detector as it was
        env_value = self._env_stream.push(value)
        self._calm = calm
        if a > self._abs_max:
            self._abs_max = a
        raw_i = self._raw_count
        self._raw_count = raw_i + 1
        self._sig.append(value)
        if env_value is None:
            return ()
        return self._absorb_env(env_value, raw_i)

    def _resume_envelope(self) -> None:
        self._env_stream.resume(self._sig[-self._env_stream.window_samples :], self._raw_count)
        self._env_behind = False

    def flush(self) -> tuple[AlarmEvent, ...]:
        """Drain the envelope lag, settle open segmentation state and end
        the stream: a later push raises ValueError. History keeps its chunks
        and buffer but drops its window tables."""
        self._ended = True
        if self._env_behind:
            self._resume_envelope()
        raw_i = max(0, self._raw_count - 1)
        alarms: list[AlarmEvent] = []
        for env_value in self._env_stream.flush():
            alarms.extend(self._absorb_env(env_value, raw_i))
        for ev in self._step.flush():
            self._on_step_event(ev, raw_i)
        self._history.release_tables()
        return tuple(alarms)

    def _absorb_env(self, env_value: float, raw_i: int) -> tuple[AlarmEvent, ...]:
        i = self._env_count
        self._env_count = i + 1
        for ev in self._step.feed(env_value):
            self._on_step_event(ev, raw_i)

        if self._in_step:
            return self._maybe_score(i, raw_i)
        if not self._history.chunks and i + 1 - self._base >= self._horizon:
            # cold start: no admitted steps yet, adapt from what was seen
            self._set_threshold(self._abs_max)
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
        if ev.kind == STARTED:
            if not self._history.chunks and ev.index > self._base:
                # everything before the first step becomes the provisional
                # reference; it contains the step that raised the threshold
                self._admit(
                    self._sig_slice(self._base, ev.index),
                    self._env_max(self._base, ev.index),
                    provisional=True,
                    raw_i=raw_i,
                )
            self._rebase(ev.index)
            self._history.reset_query()
            self._current_len = 0
            self._in_step = True
            self._step_start = ev.index
            self._step_ordinal += 1
            self._step_peak = 0.0
        else:
            self._in_step = False
            if self._step_peak <= self.cfg.admission_guard:
                self._admit(
                    self._sig_slice(self._step_start, ev.index),
                    self._env_max(self._step_start, ev.index),
                    provisional=False,
                    raw_i=raw_i,
                )
            self._rebase(ev.index)
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
