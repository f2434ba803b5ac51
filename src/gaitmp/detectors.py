"""Streaming anomaly detectors over matrix profile distances.

Two architectures share the alarm vocabulary:

* NaiveDetector: fixed-length Frame buffer queried against a trailing History
  buffer every hop; no gait awareness, so it also fires on non-step motion.
* StepGatedDetector: segments steps first, accumulates the live step in a
  Current buffer, and queries it (with subsequence length equal to the buffer
  length) against a History of previously completed step signatures. One
  alarm at most per step.

History is one contiguous buffer holding the admitted chunks back to back,
rebuilt on admission and eviction. Each score row is one distance profile
over that buffer; windows that straddle a chunk boundary splice two
signatures together and are dropped before taking the minimum. While the
Current buffer is longer than every chunk there is no reference window, and
those samples go unscored.

Scores are normalized by the z-normalized distance ceiling 2*sqrt(m) so one
threshold stays meaningful while m varies.

History admission rules for the step-gated detector, chosen so a freshly
started system cannot alarm on silence and consecutive anomalies stay
detectable:

* Everything before the first detected step enters History as one provisional
  chunk at the moment that step starts. It keeps early steps comparable and
  is evicted as soon as a clean signature exists.
* A completed step's signature [start, end) is admitted when its end event
  fires, unless the step's peak score exceeded the admission guard: suspect
  steps are quarantined, otherwise one anomaly would mask every identical
  follow-up. The guard sits below the alarm threshold so that borderline
  anomalies stay out of the reference memory even when they do not alarm,
  and it makes History evolution independent of the alarm threshold (which
  is what lets a recorded trace be re-thresholded faithfully).
* Eviction is whole-chunk FIFO once total retained samples exceed the cap.

The segmentation threshold is recomputed from the envelope maxima of the
History chunks on every admission; while History is still empty it falls
back to a fraction of the envelope maximum seen so far, but only after a
bootstrap horizon of silence-dominated data has passed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mp import TimeSeries, distance_profile
from .signal import (
    DEFAULT_ENVELOPE_MS,
    SensorSample,
    SignalSelector,
    StreamingEnvelope,
    envelope,
    envelope_window_samples,
    project,
)
from .steps import (
    DEFAULT_INITIAL_THRESHOLD,
    DEFAULT_MIN_STEP_MS,
    DEFAULT_ONSET_MS,
    DEFAULT_RELEASE_MS,
    DEFAULT_THRESHOLD_FLOOR,
    DEFAULT_THRESHOLD_FRACTION,
    ENDED,
    STARTED,
    StepDetector,
)

DEFAULT_DISCORD_THRESHOLD = 0.5


@dataclass(frozen=True)
class AlarmEvent:
    """One threshold crossing of the normalized discord score."""

    sample_index: int
    time_s: float
    score: float
    query_len: int


@dataclass(frozen=True)
class TraceRecord:
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
    history_len: int = 1000
    overlap_fraction: float = 0.25
    discord_threshold: float = DEFAULT_DISCORD_THRESHOLD

    def __post_init__(self):
        if self.frame_len < 3:
            raise ValueError("frame_len must be at least 3")
        if self.hop < 1:
            raise ValueError("hop must be at least 1")
        if self.history_len < 2 * self.frame_len:
            raise ValueError("history_len must be at least 2*frame_len")
        if not (0 <= self.overlap_fraction < 1):
            raise ValueError("overlap_fraction must be in [0, 1)")
        if not (0 <= self.discord_threshold <= 1):
            raise ValueError("discord_threshold must be in [0, 1]")

    @property
    def overlap(self) -> int:
        return int(self.overlap_fraction * self.frame_len)

    @property
    def warmup(self) -> int:
        """Samples needed before the first evaluation: a full frame plus a
        frame's worth of non-shared history."""
        return 2 * self.frame_len - self.overlap


class NaiveDetector:
    """Frame-vs-History hop detector; scores every hop once warmed up."""

    def __init__(self, config: NaiveDetectorConfig, sample_rate_hz: float):
        if not (sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        self.cfg = config
        self.sample_rate_hz = sample_rate_hz
        keep = config.history_len + config.frame_len - config.overlap
        self._buf: deque[float] = deque(maxlen=keep)
        self._count = 0
        self.trace: list[TraceRecord] = []

    def push(self, value: float) -> tuple[AlarmEvent, ...]:
        cfg = self.cfg
        self._buf.append(float(value))
        self._count += 1
        n = self._count
        if n < cfg.warmup or (n - cfg.warmup) % cfg.hop != 0:
            return ()
        arr = np.array(self._buf)
        frame = arr[-cfg.frame_len :]
        # history ends overlap samples into the frame, per the buffer layout
        history = arr[: arr.size - (cfg.frame_len - cfg.overlap)]
        d = float(distance_profile(frame, history).min())
        score = d / (2.0 * math.sqrt(cfg.frame_len))
        idx = n - 1
        self.trace.append(
            TraceRecord(idx, idx, None, cfg.frame_len, score)
        )
        if score > cfg.discord_threshold:
            return (AlarmEvent(idx, idx / self.sample_rate_hz, score, cfg.frame_len),)
        return ()

    def flush(self) -> tuple[AlarmEvent, ...]:
        return ()


# -- step-gated detector ---------------------------------------------------


@dataclass(frozen=True)
class StepSystemConfig:
    sample_rate_hz: float = 100.0
    signal: SignalSelector = field(default_factory=SignalSelector)
    history_len_s: float = 10.0
    discord_threshold: float = DEFAULT_DISCORD_THRESHOLD
    min_query_len_ms: float = 250.0
    envelope_window_ms: float = DEFAULT_ENVELOPE_MS
    bootstrap_horizon_s: float = 3.0
    threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION
    initial_threshold: float = DEFAULT_INITIAL_THRESHOLD
    threshold_floor: float = DEFAULT_THRESHOLD_FLOOR
    onset_ms: float = DEFAULT_ONSET_MS
    release_ms: float = DEFAULT_RELEASE_MS
    min_step_ms: float = DEFAULT_MIN_STEP_MS
    admission_guard: float | None = 0.35
    admit_all_steps: bool = False

    def __post_init__(self):
        if not (self.sample_rate_hz > 0 and self.history_len_s > 0):
            raise ValueError("sample_rate_hz and history_len_s must be positive")
        if not (0 <= self.discord_threshold <= 1):
            raise ValueError("discord_threshold must be in [0, 1]")
        if self.admission_guard is not None and not (0 <= self.admission_guard <= 1):
            raise ValueError("admission_guard must be in [0, 1] or None")
        if self.min_query_len < 3:
            raise ValueError("min_query_len_ms must span at least 3 samples")
        if not (self.bootstrap_horizon_s > 0):
            raise ValueError("bootstrap_horizon_s must be positive")

    @property
    def effective_guard(self) -> float:
        """Admission guard level; falls back to the alarm threshold."""
        if self.admission_guard is None:
            return self.discord_threshold
        return self.admission_guard

    @property
    def min_query_len(self) -> int:
        return round(self.min_query_len_ms * self.sample_rate_hz / 1000.0)

    @property
    def history_len(self) -> int:
        return round(self.history_len_s * self.sample_rate_hz)

    @property
    def bootstrap_horizon(self) -> int:
        return round(self.bootstrap_horizon_s * self.sample_rate_hz)


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
    """

    def __init__(self):
        self.chunks: list[_Chunk] = []
        self.buffer = np.empty(0)
        self.room = np.empty(0, dtype=np.int64)
        self.longest = 0

    def admit(self, chunk: _Chunk, cap: int) -> None:
        """Append a chunk (a clean one replaces provisional chunks), then
        evict whole chunks FIFO while more than ``cap`` samples are held."""
        kept = self.chunks if chunk.provisional else [c for c in self.chunks if not c.provisional]
        chunks = kept + [chunk]
        total = sum(c.values.size for c in chunks)
        while len(chunks) > 1 and total > cap:
            total -= chunks.pop(0).values.size
        lengths = np.array([c.values.size for c in chunks])
        ends = np.cumsum(lengths)
        self.buffer = np.concatenate([c.values for c in chunks], dtype=np.float64)
        for c, end, size in zip(chunks, ends, lengths):
            c.values = self.buffer[end - size : end]
        self.room = np.repeat(ends, lengths) - np.arange(total)
        self.longest = int(lengths.max())
        self.chunks = chunks

    def best_distance(self, query: np.ndarray) -> float:
        """Smallest distance from ``query`` to a window inside one chunk;
        +inf when no chunk is as long as the query."""
        m = query.size
        if m > self.longest:
            return math.inf
        d = distance_profile(query, self.buffer)
        return float(d[self.room[: d.size] >= m].min())


class StepGatedDetector:
    """Push SensorSamples in order; alarms come back as they are raised.

    Inspection surfaces for tests and tooling: .trace (all scored updates),
    .step_events (segmentation events with emission order), .admissions
    (History chunk admissions with emission order).
    """

    def __init__(self, config: StepSystemConfig = StepSystemConfig()):
        self.cfg = config
        fs = config.sample_rate_hz
        self._env_stream = StreamingEnvelope(
            envelope_window_samples(config.envelope_window_ms, fs)
        )
        self._step = StepDetector(
            fs,
            threshold_fraction=config.threshold_fraction,
            initial_threshold=config.initial_threshold,
            threshold_floor=config.threshold_floor,
            onset_ms=config.onset_ms,
            release_ms=config.release_ms,
            min_step_ms=config.min_step_ms,
        )
        self._sig: list[float] = []
        self._env: list[float] = []
        self._base = 0
        self._raw_count = 0
        self._env_count = 0
        self._env_max_seen = 0.0
        self._history = _History()
        self._in_step = False
        self._step_start = 0
        self._step_ordinal = -1
        self._latched = False
        self._step_peak = 0.0
        self._seq = 0
        self.trace: list[TraceRecord] = []
        self.step_events: list[dict] = []
        self.admissions: list[dict] = []

    @property
    def segmentation_threshold(self) -> float:
        return self._step.threshold

    def history_samples(self) -> int:
        return self._history.buffer.size

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- history ----------------------------------------------------------

    def _recompute_threshold(self) -> None:
        maxima = np.array([c.env_max for c in self._history.chunks])
        self._step.recompute_threshold(maxima if maxima.size else None)

    def _admit(self, values: np.ndarray, env_max: float, provisional: bool, raw_i: int) -> None:
        if values.size == 0:
            return
        self._history.admit(_Chunk(values, env_max, provisional), self.cfg.history_len)
        self._recompute_threshold()
        self.admissions.append(
            {
                "seq": self._next_seq(),
                "sample_index": raw_i,
                "length": int(values.size),
                "provisional": provisional,
            }
        )

    def prime_history(self, reference) -> None:
        """Preload History with a reference signal before streaming."""
        if self._raw_count:
            raise ValueError("prime_history must run before any samples are pushed")
        values = reference.values if isinstance(reference, TimeSeries) else np.asarray(
            reference, dtype=np.float64
        )
        if values.size < self.cfg.min_query_len:
            raise ValueError("reference shorter than one minimum query window")
        ref_env = envelope(
            TimeSeries(values, self.cfg.sample_rate_hz), self.cfg.envelope_window_ms
        )
        self._admit(values, float(ref_env.values.max()), provisional=False, raw_i=-1)

    # -- buffer plumbing ---------------------------------------------------

    def _rebase(self, new_base: int) -> None:
        drop = new_base - self._base
        if drop <= 0:
            return
        del self._sig[:drop]
        del self._env[:drop]
        self._base = new_base

    def _sig_slice(self, start: int, end: int) -> np.ndarray:
        return np.array(self._sig[start - self._base : end - self._base])

    def _env_slice_max(self, start: int, end: int) -> float:
        return max(self._env[start - self._base : end - self._base])

    # -- streaming ---------------------------------------------------------

    def push(self, sample: SensorSample) -> tuple[AlarmEvent, ...]:
        raw_i = self._raw_count
        self._raw_count += 1
        value = project(sample, self.cfg.signal)
        self._sig.append(value)
        alarms: list[AlarmEvent] = []
        for env_value in self._env_stream.push(value):
            alarms.extend(self._absorb_env(env_value, raw_i))
        return tuple(alarms)

    def flush(self) -> tuple[AlarmEvent, ...]:
        """Drain the envelope lag and settle open segmentation state."""
        raw_i = max(0, self._raw_count - 1)
        alarms: list[AlarmEvent] = []
        for env_value in self._env_stream.flush():
            alarms.extend(self._absorb_env(env_value, raw_i))
        for ev in self._step.flush():
            self._on_step_event(ev, raw_i)
        return tuple(alarms)

    def _absorb_env(self, env_value: float, raw_i: int) -> list[AlarmEvent]:
        i = self._env_count
        self._env_count += 1
        self._env.append(env_value)
        self._env_max_seen = max(self._env_max_seen, env_value)

        for ev in self._step.feed(env_value, i):
            self._on_step_event(ev, raw_i)

        idle = not self._in_step
        if idle and not self._history.chunks and i + 1 - self._base >= self.cfg.bootstrap_horizon:
            # cold start: no admitted steps yet, adapt from what was seen
            self._step.threshold = max(
                self.cfg.threshold_fraction * self._env_max_seen,
                self.cfg.threshold_floor,
            )
        if idle and i + 1 - self._base > self.cfg.bootstrap_horizon:
            self._rebase(i + 1 - self.cfg.bootstrap_horizon)

        return self._maybe_score(i, raw_i)

    def _maybe_score(self, i: int, raw_i: int) -> list[AlarmEvent]:
        if not self._in_step:
            return []
        m = i + 1 - self._step_start
        if m < self.cfg.min_query_len:
            return []
        # the subsequence length is the Current buffer length, scored with one
        # distance profile over the whole History buffer; windows straddling a
        # chunk boundary are not reference signatures and are dropped. Once
        # the buffer outgrows every chunk there is no reference window left
        # and the sample goes unscored
        best = self._history.best_distance(self._sig_slice(self._step_start, i + 1))
        if not math.isfinite(best):
            return []
        score = best / (2.0 * math.sqrt(m))
        self._step_peak = max(self._step_peak, score)
        self.trace.append(TraceRecord(raw_i, i, self._step_ordinal, m, score))
        if score > self.cfg.discord_threshold and not self._latched:
            self._latched = True
            return [AlarmEvent(raw_i, raw_i / self.cfg.sample_rate_hz, score, m)]
        return []

    def _on_step_event(self, ev, raw_i: int) -> None:
        if ev.kind == STARTED:
            if not self._history.chunks and ev.index > self._base:
                # everything before the first step becomes the provisional
                # reference; it contains the step that raised the threshold
                self._admit(
                    self._sig_slice(self._base, ev.index),
                    self._env_slice_max(self._base, ev.index),
                    provisional=True,
                    raw_i=raw_i,
                )
            self._rebase(ev.index)
            self._in_step = True
            self._step_start = ev.index
            self._step_ordinal += 1
            self._latched = False
            self._step_peak = 0.0
        else:
            self._in_step = False
            if self.cfg.admit_all_steps or self._step_peak <= self.cfg.effective_guard:
                self._admit(
                    self._sig_slice(self._step_start, ev.index),
                    self._env_slice_max(self._step_start, ev.index),
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
    detector: object


def replay(detector, recording, signal: SignalSelector | None = None) -> ReplayResult:
    """Push a whole recording through a detector, timing the hot path.

    Step-gated detectors consume SensorSamples and use their own configured
    projection; the naive detector takes the scalar stream selected here.
    """
    import time

    alarms: list[AlarmEvent] = []
    if isinstance(detector, StepGatedDetector):
        samples = recording.samples
        t0 = time.perf_counter()
        for s in samples:
            alarms.extend(detector.push(s))
        alarms.extend(detector.flush())
        wall = time.perf_counter() - t0
    else:
        values = recording.project(signal or SignalSelector()).values
        t0 = time.perf_counter()
        for v in values:
            alarms.extend(detector.push(v))
        alarms.extend(detector.flush())
        wall = time.perf_counter() - t0
    return ReplayResult(alarms, list(detector.trace), wall, detector)


def alarms_from_trace(
    trace: list[TraceRecord], threshold: float, sample_rate_hz: float
) -> list[AlarmEvent]:
    """Re-threshold a scored trace; reproduces online alarms exactly.

    Step-mode records latch one alarm per step ordinal (first crossing);
    naive records alarm at every crossing.
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


def dump_alarms(alarms, path) -> None:
    with open(path, "w") as f:
        for a in alarms:
            f.write(
                json.dumps(
                    {
                        "sample_index": a.sample_index,
                        "time_s": a.time_s,
                        "score": a.score,
                        "query_len": a.query_len,
                    }
                )
                + "\n"
            )


def load_alarms(path) -> list[AlarmEvent]:
    alarms = []
    with open(path) as f:
        for line in f:
            if line.strip():
                d = json.loads(line)
                alarms.append(
                    AlarmEvent(d["sample_index"], d["time_s"], d["score"], d["query_len"])
                )
    return alarms


def dump_trace(trace, path) -> None:
    with open(path, "w") as f:
        for r in trace:
            f.write(
                json.dumps(
                    {
                        "sample_index": r.sample_index,
                        "query_index": r.query_index,
                        "step_ordinal": r.step_ordinal,
                        "query_len": r.query_len,
                        "score": r.score,
                    }
                )
                + "\n"
            )


def load_trace(path) -> list[TraceRecord]:
    out = []
    with open(path) as f:
        for line in f:
            if line.strip():
                d = json.loads(line)
                out.append(
                    TraceRecord(
                        d["sample_index"],
                        d["query_index"],
                        d["step_ordinal"],
                        d["query_len"],
                        d["score"],
                    )
                )
    return out
