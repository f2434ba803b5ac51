import copy
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitmp.dataset import ANOMALY_KINDS, Recording, SynthConfig, generate
from gaitmp.errors import DataError
from gaitmp.detectors import (
    HOLD_RATIO,
    NaiveDetector,
    NaiveDetectorConfig,
    StepGatedDetector,
    StepSystemConfig,
    AlarmEvent,
    TraceRecord,
    alarms_from_trace,
    dump_jsonl,
    load_jsonl,
    _Chunk,
    _History,
    replay,
)
from gaitmp.mp import DEFAULT_EPS, TimeSeries, distance_profile
from gaitmp.signal import (
    SensorSample,
    SignalSelector,
    StreamingEnvelope,
    envelope_window_samples,
    project,
)
from gaitmp.evaluation import match_alarms
from gaitmp.steps import ENDED, INITIAL_THRESHOLD, StepDetector
from oracle import envelope_by_definition, segments_by_definition, znorm_distance

# a long History draw: past the 1,000-reading History of the default
# step-gated config
LONG = 1024


def make_recording(kind="shape-replaced", seed=0):
    cfg = SynthConfig(
        n_normal_steps=10,
        n_anomalous_steps=2,
        anomaly_position=7,
        rng_seed=seed,
        anomaly_kind=kind,
    )
    return generate(cfg)


def primed_steps(values, cfg):
    """The steps prime_history admits from values, by the definition, and
    the envelope they were cut from."""
    w = envelope_window_samples(cfg.envelope_window_ms, cfg.sample_rate_hz)
    env = envelope_by_definition(values, w)
    det = StepDetector(cfg.sample_rate_hz)
    det.recompute_threshold(env.max())
    return segments_by_definition(det, env), env


def primed_admissions(steps):
    return [
        {"seq": k + 1, "sample_index": -1, "length": e - s, "provisional": False}
        for k, (s, e) in enumerate(steps)
    ]


def ab_spans(truth):
    return [(s.start, s.end) for s in truth if s.is_anomalous]


def in_any(idx, spans):
    return any(a <= idx < b for a, b in spans)


@pytest.fixture(scope="module")
def tremor_run():
    rec, truth = make_recording()
    det = StepGatedDetector(StepSystemConfig())
    res = replay(det, rec)
    return rec, truth, det, res


class TestNaiveConfig:
    def test_defaults(self):
        cfg = NaiveDetectorConfig()
        assert cfg.overlap == 25
        assert cfg.warmup == 175

    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveDetectorConfig(frame_len=2)
        with pytest.raises(ValueError):
            NaiveDetectorConfig(hop=0)
        with pytest.raises(ValueError):
            NaiveDetectorConfig(history_len_s=0.0)
        # History must span two Frames; the check needs the rate
        with pytest.raises(ValueError, match="2\\*frame_len"):
            NaiveDetector(NaiveDetectorConfig(history_len_s=1.5), 100.0)
        with pytest.raises(ValueError, match="2\\*frame_len"):
            NaiveDetector(NaiveDetectorConfig(), 10.0)
        with pytest.raises(ValueError):
            NaiveDetectorConfig(discord_threshold=1.5)

    @pytest.mark.parametrize(
        "seconds, rate, samples",
        [(10.0, 100.0, 1000), (2.0, 100.0, 200), (10.0, 50.0, 500), (250.0, 1.0, 250)],
    )
    def test_history_is_set_in_seconds(self, seconds, rate, samples):
        assert NaiveDetector(NaiveDetectorConfig(history_len_s=seconds), rate).history_len == samples


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda rate: Recording([0.0], [[0, 0, 0]], [[0, 0, 0]], sample_rate_hz=rate),
        lambda rate: TimeSeries([1.0, 2.0], rate),
        lambda rate: NaiveDetector(NaiveDetectorConfig(), rate),
        lambda rate: StepDetector(rate),
        lambda rate: envelope_window_samples(100.0, rate),
    ],
    ids=["Recording", "TimeSeries", "NaiveDetector", "StepDetector", "envelope_window_samples"],
)
def test_sample_rate_must_be_positive_and_finite(build, rate):
    with pytest.raises(ValueError, match="positive and finite"):
        build(rate)


class TestNaiveDetector:
    def test_silent_until_warmup(self):
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        rng = np.random.default_rng(0)
        for v in rng.normal(size=174):
            assert det.push(v) == ()
        assert det.trace == []

    def test_first_evaluation_at_warmup(self):
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        for v in np.sin(np.arange(175) * 0.3):
            det.push(v)
        assert len(det.trace) == 1
        assert det.trace[0].sample_index == 174
        assert det.trace[0].step_ordinal is None

    def test_hop_spacing(self):
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        for v in np.sin(np.arange(600) * 0.3):
            det.push(v)
        idx = [r.sample_index for r in det.trace]
        assert all(b - a == 10 for a, b in zip(idx, idx[1:]))

    def test_periodic_repetition_scores_near_zero(self):
        t = np.arange(2000) / 100.0
        x = 80.0 * np.abs(np.sin(2 * np.pi * t))
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        for v in x:
            det.push(v)
        # early evaluations see almost no history and are meaningless chatter;
        # judge the steady state only
        steady = [r.score for r in det.trace if r.sample_index >= 400]
        assert steady and max(steady) < 0.05

    def test_alarms_cover_disturbance(self):
        rng = np.random.default_rng(5)
        t = np.arange(2000) / 100.0
        x = 80.0 * np.abs(np.sin(2 * np.pi * t))
        x[1500:1600] = 80.0 * rng.random(100)
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        alarms = []
        for v in x:
            alarms.extend(det.push(v))
        hits = [a for a in alarms if 1500 <= a.sample_index < 1700]
        assert hits
        steady = [r.score for r in det.trace if 400 <= r.sample_index < 1500]
        assert max(a.score for a in hits) > 10 * max(steady)

    def test_flush_is_empty(self):
        det = NaiveDetector(NaiveDetectorConfig(), 100.0)
        assert det.flush() == ()

    def test_a_push_after_flush_raises_and_changes_nothing(self):
        # the step-gated rule: flush ends the stream, a later push raises
        # before any state changes, and a second flush is harmless
        values = np.sin(np.arange(400) * 0.3)
        runs = []
        for push_after_flush in (False, True):
            det = NaiveDetector(NaiveDetectorConfig(), 100.0)
            for v in values[:300]:
                det.push(v)
            det.flush()
            if push_after_flush:
                for v in values[300:]:
                    with pytest.raises(ValueError, match="flush"):
                        det.push(v)
                assert det.flush() == ()
            runs.append((det._count, det._block, det._readings.tolist(), det.trace))
        assert runs[0][0] == 300 and runs[0][3]
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("signal", ["gyro:linf", "accel:l2", "gyro:x"])
    def test_replay_reads_the_configured_signal(self, signal):
        rec, _ = make_recording()
        cfg = NaiveDetectorConfig(signal=SignalSelector.parse(signal))
        by_hand = NaiveDetector(cfg, rec.sample_rate_hz)
        alarms = [a for v in rec.project(cfg.signal).values for a in by_hand.push(v)]
        res = replay(NaiveDetector(cfg, rec.sample_rate_hz), rec)
        assert res.trace == by_hand.trace and res.alarms == alarms

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize(
        "cfg, where",
        [
            # bad readings before warmup, completing the warmup hop, after it
            (NaiveDetectorConfig(), [100]),
            (NaiveDetectorConfig(), [174]),
            (NaiveDetectorConfig(), [180]),
            # a hop longer than the frame, with two bad readings in one block:
            # windows after a bad reading are measured in the same hop
            (NaiveDetectorConfig(frame_len=10, hop=30, history_len_s=0.4), [50, 70]),
            # Frame blocks of 7 and a remainder of 5, kept across hops once
            # the buffer is full: rebuilt after the rejected hops
            (NaiveDetectorConfig(frame_len=40, hop=7, history_len_s=3.0), [600]),
        ],
    )
    def test_non_finite_reading_is_rejected_while_it_is_buffered(self, bad, kind, cfg, where):
        keep = NaiveDetector(cfg, 100.0).history_len + cfg.frame_len - cfg.overlap
        values = np.sin(np.arange(1500) * 0.3) + np.random.default_rng(0).normal(0.0, 0.1, 1500)
        clean = NaiveDetector(cfg, 100.0)
        for v in values:
            clean.push(v)
        values = values.tolist()
        for t in where:
            values[t] = kind(bad)
        det = NaiveDetector(cfg, 100.0)
        rejected = []
        for n, v in enumerate(values, start=1):
            try:
                det.push(v)
            except DataError:
                rejected.append(n)
        hops = range(cfg.warmup, len(values) + 1, cfg.hop)
        assert rejected == [n for n in hops if any(t < n <= t + keep for t in where)]
        # the hops before and after score as if the readings had been finite
        scored = {r.sample_index: r.score for r in det.trace}
        assert sorted(scored) == [n - 1 for n in hops if n not in rejected]
        assert scored == {r.sample_index: r.score for r in clean.trace if r.sample_index in scored}


def naive_hops(values, cfg):
    """(sample index, score) for every hop of a NaiveDetector at 1 Hz, where
    history_len_s counts samples: Frame and History cut from a list of the
    last keep readings, one distance_profile per hop."""
    m, keep = cfg.frame_len, round(cfg.history_len_s) + cfg.frame_len - cfg.overlap
    hops = []
    for n in range(cfg.warmup, len(values) + 1, cfg.hop):
        arr = np.array(values[max(0, n - keep) : n])
        frame = arr[-m:]
        history = arr[: arr.size - (m - cfg.overlap)]
        score = distance_profile(frame, history).min() / (2.0 * math.sqrt(m))
        hops.append((n - 1, float(score)))
    return hops


def definition_best(frame, history):
    """Smallest distance between the z-normalized Frame and a z-normalized
    window of History, each measured on its own; a constant one z-normalizes
    to zeros."""

    def znorm(x):
        sd = x.std(axis=-1, keepdims=True)
        return (x - x.mean(axis=-1, keepdims=True)) / np.where(sd > DEFAULT_EPS, sd, np.inf)

    windows = np.lib.stride_tricks.sliding_window_view(history, frame.size)
    return float(np.sqrt(((znorm(windows) - znorm(frame)) ** 2).sum(axis=1)).min())


def draw_stream(rng, kinds, level, length, frame_len):
    """``length`` readings from segments of the listed kinds, in turn: gait-
    scale noise, one periodic pattern (a period of at most frame_len, so every
    Frame in a periodic stretch has an exact copy in History), zeros, and a
    constant at ``level``."""
    base = rng.normal(0.0, 2.0, int(rng.integers(2, frame_len + 1)))
    parts, total = [], 0
    while total < length:
        for kind in kinds:
            n = int(rng.integers(frame_len, 6 * frame_len + 60))
            if kind == "noise":
                part = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), n)
            elif kind == "periodic":
                part = base[(total + np.arange(n)) % base.size]
            else:
                part = np.full(n, 0.0 if kind == "zeros" else level)
            parts.append(part)
            total += n
    return np.concatenate(parts)[:length].tolist()


@pytest.mark.deep
class TestNaiveHops:
    """Every hop of NaiveDetector matches a fresh distance profile of a Frame
    and History cut from the last keep readings."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frame_len=st.integers(3, 40),
        extra=st.integers(0, 120) | st.integers(LONG, LONG + 50),
        hop=st.integers(1, 12) | st.integers(1500, 1600),
        threshold=st.floats(0.0, 1.0),
        kinds=st.lists(st.sampled_from(["noise", "periodic", "zeros", "constant"]), min_size=1, max_size=4),
        level=st.floats(0.5, 20.0) | st.floats(-20.0, -0.5),
        more_hops=st.integers(-1, 60),
    )
    # an exact periodic repeat: every score is a near-duplicate, recomputed
    @example(seed=1, frame_len=20, extra=40, hop=3, threshold=0.5,
             kinds=["periodic"], level=1.0, more_hops=30)
    # a constant stretch at level 0: constant windows, and a constant Frame
    # among constant windows
    @example(seed=2, frame_len=10, extra=30, hop=1, threshold=0.3,
             kinds=["noise", "zeros"], level=1.0, more_hops=60)
    # a constant Frame at a nonzero level, and constant windows whose
    # running sums cancel
    @example(seed=3, frame_len=12, extra=0, hop=1, threshold=0.3,
             kinds=["noise", "constant"], level=9.81, more_hops=60)
    # the first hop at warmup only, with frame_len 3 (and so no overlap)
    @example(seed=4, frame_len=3, extra=0, hop=5, threshold=0.3,
             kinds=["noise"], level=1.0, more_hops=-1)
    # hop equal to keep (40 + 10 - 2 readings), and a long History
    @example(seed=5, frame_len=10, extra=20, hop=48, threshold=0.3,
             kinds=["noise", "periodic"], level=1.0, more_hops=8)
    @example(seed=6, frame_len=40, extra=LONG, hop=7, threshold=0.3,
             kinds=["noise", "periodic", "zeros"], level=1.0, more_hops=20)
    # a best at d = 1.9e-3 at m = 3: 1 - rho is under 1e-6, so it is a
    # near-duplicate and recomputed, though d is over NEAR_DUPLICATE
    @example(seed=14975, frame_len=3, extra=LONG, hop=8, threshold=0.0,
             kinds=["noise", "noise", "periodic", "noise"], level=1.0, more_hops=0)
    # the Frame's moments taken two-pass from its readings: one-pass moments
    # from running sums put a score 9.6e-9 off the definition here
    @example(seed=3339855069, frame_len=3, extra=LONG, hop=1,
             threshold=0.0, kinds=["noise"], level=1.0, more_hops=0)
    # m = 3 over a History of over LONG readings: a hop must round its window
    # sums as distance_profile does (sums over a few readings each put a hop
    # here 2.1e-9 off)
    @example(seed=0, frame_len=3, extra=LONG, hop=7, threshold=0.5,
             kinds=["noise"], level=1.0, more_hops=20)
    # the Frame as 5 kept blocks of 7 and a remainder block of 5, over many
    # hops of a long History
    @example(seed=7, frame_len=40, extra=LONG, hop=7, threshold=0.3,
             kinds=["noise", "periodic", "zeros"], level=1.0, more_hops=60)
    # exactly two kept blocks, with a constant stretch at a level
    @example(seed=8, frame_len=12, extra=30, hop=6, threshold=0.3,
             kinds=["noise", "constant"], level=9.81, more_hops=40)
    # hop 1: one correlate of the whole Frame, no blocks
    @example(seed=9, frame_len=20, extra=40, hop=1, threshold=0.3,
             kinds=["noise", "periodic"], level=1.0, more_hops=30)
    # a threshold one ulp under 1: the first hop scores it exactly, where
    # distance_profile, which clips rho at -1, gives 1.0 and so an alarm
    @example(seed=57, frame_len=3, extra=0, hop=1, threshold=0.9999999999999999,
             kinds=["periodic"], level=1.0, more_hops=0)
    def test_every_hop_matches_a_fresh_distance_profile(
        self, seed, frame_len, extra, hop, threshold, kinds, level, more_hops
    ):
        check_naive_hops(seed, frame_len, extra, hop, threshold, kinds, level, more_hops)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D2: a hop at m = 3 (hop 1500, so one correlate and no kept "
        "blocks) reads 1.16e-8 off distance_profile; History's running sums over "
        "about 1,000 readings lose the digits",
    )
    def test_a_quiet_best_over_a_long_history_holds_the_oracle(self):
        check_naive_hops(
            seed=1212276, frame_len=3, extra=LONG, hop=1500, threshold=0.0,
            kinds=["noise"], level=1.0, more_hops=0,
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D2: at m = 3 hop 366 (hop 1, so one correlate) finds a near "
        "match, score 2.6e-3, and reads 1.70e-9 off distance_profile; the "
        "rounding of History's running sums grows as 1/d there",
    )
    def test_a_near_match_over_a_long_history_holds_the_oracle(self):
        check_naive_hops(
            seed=17153330, frame_len=3, extra=LONG, hop=1, threshold=0.0,
            kinds=["noise"], level=1.0, more_hops=0,
        )


def check_naive_hops(seed, frame_len, extra, hop, threshold, kinds, level, more_hops):
    """Push a drawn stream through a NaiveDetector at 1 Hz and hold its hops
    to naive_hops within 1e-9, its alarms to its own rows over the threshold,
    and those to naive_hops' alarms wherever the oracle's score is more than
    1e-9 from the threshold."""
    cfg = NaiveDetectorConfig(
        frame_len=frame_len,
        hop=hop,
        history_len_s=2 * frame_len + extra,
        discord_threshold=threshold,
    )
    # at 1 Hz History counts as many samples as seconds
    det = NaiveDetector(cfg, 1.0)
    keep = det.history_len + cfg.frame_len - cfg.overlap
    # fill the last keep readings, then slide them for a while (more_hops
    # -1: stop before)
    hops = -(-max(keep - cfg.warmup, 0) // hop) + more_hops
    length = cfg.warmup + hop * hops
    values = draw_stream(np.random.default_rng(seed), kinds, level, length, frame_len)
    alarms = [a.sample_index for v in values for a in det.push(v)]
    want = naive_hops(values, cfg)
    assert [r.sample_index for r in det.trace] == [i for i, _ in want]
    assert [r.score for r in det.trace] == pytest.approx([score for _, score in want], rel=0, abs=1e-9)
    assert alarms == [r.sample_index for r in det.trace if r.score > threshold]
    clear = {i: score > threshold for i, score in want if abs(score - threshold) > 1e-9}
    assert [i for i in alarms if i in clear] == [i for i, over in clear.items() if over]


class TestStepSystemConfig:
    def test_default_sample_counts(self):
        cfg = StepSystemConfig()
        assert cfg.min_query_len == 25
        assert cfg.history_len == 1000
        assert cfg.bootstrap_horizon == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSystemConfig(sample_rate_hz=0.0)
        with pytest.raises(ValueError):
            StepSystemConfig(discord_threshold=-0.1)
        with pytest.raises(ValueError):
            StepSystemConfig(admission_guard=1.2)
        with pytest.raises(ValueError):
            StepSystemConfig(admission_guard=None)
        # named here, not left to the detector's envelope window
        for bad in (0.0, -10.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="envelope_window_ms must be positive and finite"):
                StepSystemConfig(envelope_window_ms=bad)
        # 250 ms at 10 Hz rounds to 2 samples, too short a query
        with pytest.raises(ValueError, match="at least 3 samples"):
            StepSystemConfig(sample_rate_hz=10.0)


class TestStepGatedOnFixture:
    def test_alarms_only_inside_anomalous_spans(self, tremor_run):
        _, truth, _, res = tremor_run
        spans = ab_spans(truth)
        assert len(res.alarms) == 2
        assert all(in_any(a.sample_index, spans) for a in res.alarms)

    def test_one_alarm_per_anomalous_step(self, tremor_run):
        _, truth, det, res = tremor_run
        spans = ab_spans(truth)
        hit = [any(a <= al.sample_index < b for al in res.alarms) for a, b in spans]
        assert hit == [True, True]

    def test_latch_holds_through_long_excursion(self, tremor_run):
        _, _, det, res = tremor_run
        # both anomalous steps stay above threshold for many updates, yet
        # each raises exactly one alarm
        above = {}
        for r in det.trace:
            if r.score > det.cfg.discord_threshold:
                above[r.step_ordinal] = above.get(r.step_ordinal, 0) + 1
        assert all(count > 1 for count in above.values())
        assert len(res.alarms) == len(above)

    def test_scores_stay_in_unit_interval(self, tremor_run):
        _, _, det, _ = tremor_run
        assert all(0.0 <= r.score <= 1.0 for r in det.trace)
        assert all(r.query_len >= det.cfg.min_query_len for r in det.trace)

    def test_normal_steps_score_low(self, tremor_run):
        _, truth, det, _ = tremor_run
        spans = ab_spans(truth)
        starts = [e["index"] for e in det.step_events if e["kind"] == "started"]
        for r in det.trace:
            if not in_any(starts[r.step_ordinal] + 10, spans):
                assert r.score < 0.35

    def test_started_and_ended_balance(self, tremor_run):
        _, _, det, _ = tremor_run
        kinds = [e["kind"] for e in det.step_events]
        assert kinds.count("started") == kinds.count("ended") == 11
        assert kinds == ["started", "ended"] * 11

    def test_first_admission_is_provisional_then_evicted(self, tremor_run):
        _, _, det, _ = tremor_run
        flags = [a["provisional"] for a in det.admissions]
        assert flags[0] is True
        assert not any(flags[1:])
        assert not any(c.provisional for c in det._history.chunks)

    def test_anomalous_steps_not_admitted(self, tremor_run):
        _, _, det, _ = tremor_run
        # 11 detected steps, one provisional chunk, two quarantined steps
        assert len(det.admissions) == 1 + (11 - 2)

    def test_history_admitted_before_any_event_or_score(self, tremor_run):
        _, _, det, _ = tremor_run
        assert det.admissions[0]["seq"] < det.step_events[0]["seq"]
        assert det.trace[0].sample_index > det.admissions[0]["sample_index"]

    def test_history_cap_respected(self, tremor_run):
        _, _, det, _ = tremor_run
        assert det._history.buffer.size <= det.cfg.history_len


class TestStepGatedBehavior:
    def test_replay_is_deterministic(self):
        rec, _ = make_recording(seed=3)
        r1 = replay(StepGatedDetector(StepSystemConfig()), rec)
        r2 = replay(StepGatedDetector(StepSystemConfig()), rec)
        assert r1.trace == r2.trace
        assert r1.alarms == r2.alarms

    @pytest.mark.parametrize("theta", [0.3, 0.6])
    def test_rethresholded_trace_matches_online_run(self, tremor_run, theta):
        rec, _, det, res = tremor_run
        online = replay(StepGatedDetector(StepSystemConfig(discord_threshold=theta)), rec)
        redone = alarms_from_trace(res.trace, theta, det.cfg.sample_rate_hz)
        assert [(a.sample_index, a.score) for a in online.alarms] == [
            (a.sample_index, a.score) for a in redone
        ]

    def test_admission_guard_blocks_reference_poisoning(self):
        # with a guard that admits every step and alarms off, the first
        # anomaly enters History and the second one matches it instead of
        # standing out
        rec, truth = make_recording()
        det = StepGatedDetector(
            StepSystemConfig(discord_threshold=1.0, admission_guard=1.0)
        )
        replay(det, rec)
        spans = ab_spans(truth)
        starts = [e["index"] for e in det.step_events if e["kind"] == "started"]
        per = {}
        for r in det.trace:
            per.setdefault(r.step_ordinal, []).append(r.score)
        ab_ords = sorted(k for k in per if in_any(starts[k] + 10, spans))
        assert max(per[ab_ords[0]]) > 0.5
        assert max(per[ab_ords[1]]) < 0.1

    @pytest.mark.parametrize("scale", [0.0, 0.05])
    def test_cold_start_threshold_follows_the_step_rule(self, scale):
        # a quiet stream keeps the initial threshold until the envelope
        # reaches the bootstrap horizon; on that reading the threshold is half
        # the largest envelope value so far, or the floor on an all-zero stream
        cfg = StepSystemConfig()
        det = StepGatedDetector(cfg)
        gyro = scale * np.random.default_rng(5).normal(size=(2 * cfg.bootstrap_horizon, 3))
        for k, g in enumerate(gyro):
            det.push(SensorSample(k / cfg.sample_rate_hz, (0.0, 0.0, 9.81), g))
            if det._env_count == cfg.bootstrap_horizon:
                break
            assert det._step.threshold == INITIAL_THRESHOLD
        seen = np.abs(gyro[: k + 1]).max(axis=1)
        w = envelope_window_samples(cfg.envelope_window_ms, cfg.sample_rate_hz)
        env = envelope_by_definition(seen, w)[: cfg.bootstrap_horizon]
        assert det._step.threshold == (0.5 * env.max() if scale else 1e-6)
        assert not det._history.chunks

    def test_prime_history_rejects_a_reference_with_no_step(self):
        det = StepGatedDetector(StepSystemConfig())
        with pytest.raises(ValueError, match="no step"):
            det.prime_history(np.zeros(400))
        assert det.admissions == []
        assert det._history.chunks == []

    def test_prime_history_keeps_the_trailing_whole_steps(self):
        # a 40-step reference holds about four times History's cap: every
        # step is admitted in order, and History keeps the trailing ones
        ref, _ = generate(SynthConfig(n_normal_steps=40, n_anomalous_steps=0, rng_seed=3))
        values = ref.project(SignalSelector()).values
        cfg = StepSystemConfig()
        steps, env = primed_steps(values, cfg)
        assert len(steps) == 40 and values.size > 4 * cfg.history_len
        det = StepGatedDetector(cfg)
        det.prime_history(values)
        assert det.admissions == primed_admissions(steps)
        chunks = det._history.chunks
        kept = steps[len(steps) - len(chunks) :]
        for chunk, (s, e) in zip(chunks, kept):
            assert np.array_equal(chunk.values, values[s:e])
            assert chunk.env_max == env[s:e].max()
            assert not chunk.provisional
        total = sum(e - s for s, e in kept)
        dropped = steps[len(steps) - len(chunks) - 1]
        assert total <= cfg.history_len < total + dropped[1] - dropped[0]
        assert det._step.threshold == 0.5 * max(c.env_max for c in chunks)

    def test_prime_history_rejects_a_non_finite_array_before_admitting(self):
        det = StepGatedDetector(StepSystemConfig())
        with pytest.raises(DataError):
            det.prime_history(np.r_[np.zeros(399), np.nan])
        assert det.admissions == []
        assert det._history.chunks == []

    def test_prime_history_rejects_a_reference_at_another_rate(self):
        rec, _ = make_recording()
        slow, _ = generate(SynthConfig(n_normal_steps=8, n_anomalous_steps=0, sample_rate_hz=50.0))
        det = StepGatedDetector(StepSystemConfig(sample_rate_hz=rec.sample_rate_hz))
        with pytest.raises(ValueError, match="50 Hz"):
            det.prime_history(slow.project(SignalSelector()))
        assert det.admissions == []
        values = rec.project(SignalSelector()).values
        det.prime_history(values)
        assert det.admissions == primed_admissions(primed_steps(values, det.cfg)[0])

    def test_prime_history_accepts_a_rate_read_from_timestamps(self):
        # 1/median(diff(t)) of a saved 60 Hz file lands a few 1e-9 off 60;
        # that is the same rate, and so is anything within UNIFORMITY_TOL
        ref, _ = generate(SynthConfig(n_normal_steps=8, n_anomalous_steps=0, sample_rate_hz=60.0))
        values = ref.project(SignalSelector()).values
        steps = primed_steps(values, StepSystemConfig(sample_rate_hz=60.0))[0]
        assert len(steps) == 8
        for rate in (60.0 * (1 + 2e-9), 60.0 * (1 - 2e-9), 60.3):
            det = StepGatedDetector(StepSystemConfig(sample_rate_hz=60.0))
            det.prime_history(TimeSeries(values, rate))
            assert det.admissions == primed_admissions(steps)
        with pytest.raises(ValueError, match="60.6 Hz, the detector at 60 Hz"):
            StepGatedDetector(StepSystemConfig(sample_rate_hz=60.0)).prime_history(
                TimeSeries(values, 60.6)
            )

    def test_prime_history_rejects_after_streaming(self):
        rec, _ = make_recording()
        det = StepGatedDetector(StepSystemConfig())
        det.push(rec.samples[0])
        with pytest.raises(ValueError):
            det.prime_history(np.zeros(400))

    def test_prime_history_rejects_after_a_pending_quiet_push(self):
        # with a one-reading envelope window a primed detector arms a quiet
        # run at its first push, whose reading is pending, not yet counted
        ref = make_recording()[0].project(SignalSelector()).values
        det = StepGatedDetector(StepSystemConfig(envelope_window_ms=10.0))
        det.prime_history(ref)
        assert det.push(reading(0, 0.0)) == ()
        assert det._run_cap and det._raw_count == 0
        with pytest.raises(ValueError, match="before any samples"):
            det.prime_history(ref)

    def test_primed_reference_replaces_provisional_bootstrap(self):
        rec, truth = make_recording()
        ref = rec.project(SignalSelector()).values[:400]
        det = StepGatedDetector(StepSystemConfig())
        det.prime_history(ref)
        steps = primed_steps(ref, det.cfg)[0]
        assert [e - s for s, e in steps] == [43, 43]
        assert det.admissions == primed_admissions(steps)
        res = replay(det, rec)
        assert not any(a["provisional"] for a in det.admissions)
        assert any(r.step_ordinal == 0 for r in det.trace)
        assert len(res.alarms) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_priming_from_a_clean_recording_catches_a_leading_anomaly(self, seed):
        # the anomalous steps come first, at noise 15, so only a primed
        # History holds a normal step before them: primed with a clean walk
        # of the same gait, both anomalous steps alarm and no normal one does
        rec, truth = generate(
            SynthConfig(n_normal_steps=10, n_anomalous_steps=2, anomaly_position=0,
                        noise_std=15.0, rng_seed=seed)
        )
        ref, _ = generate(
            SynthConfig(n_normal_steps=20, n_anomalous_steps=0, noise_std=15.0,
                        rng_seed=10000 + seed)
        )
        det = StepGatedDetector(StepSystemConfig())
        det.prime_history(ref.project(SignalSelector()))
        counts = match_alarms(replay(det, rec).alarms, truth)
        assert (counts.tp, counts.fp) == (2, 0)

    def test_idle_buffers_stay_bounded(self):
        # readings before the bootstrap horizon are dropped in batches: the
        # buffers stay under two horizons plus the few samples of envelope
        # lag, also where one quiet run lasts 600 s
        for tail_s in (30.0, 600.0):
            rec, _ = generate(SynthConfig(n_normal_steps=4, n_anomalous_steps=0, tail_s=tail_s))
            det = StepGatedDetector(StepSystemConfig())
            longest = 0
            for s in rec.iter_samples():
                det.push(s)
                longest = max(longest, len(det._sig))
            assert longest <= 2 * det.cfg.bootstrap_horizon + 20

    def test_replay_memory_does_not_grow_with_the_recording(self):
        # replay streams samples a block at a time, so its traced peak over a
        # 600 s idle tail stays that of a 120 s one; a list of every
        # SensorSample would make it about 4.5x larger
        peaks = []
        for tail_s in (120.0, 600.0):
            rec, _ = generate(SynthConfig(n_normal_steps=10, n_anomalous_steps=2, tail_s=tail_s))
            tracemalloc.start()
            try:
                replay(StepGatedDetector(StepSystemConfig()), rec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_flush_settles_open_step(self):
        rec, _ = make_recording()
        det = StepGatedDetector(StepSystemConfig())
        # stop mid-recording, likely inside a step
        for s in rec.samples[:900]:
            det.push(s)
        det.flush()
        kinds = [e["kind"] for e in det.step_events]
        assert kinds.count("started") == kinds.count("ended")

    def test_a_push_that_raises_changes_nothing(self):
        # the gyro reading is finite but its l2 norm overflows to inf: that
        # push raises, and a caller that goes on gets the clean run's outputs
        rec, _ = generate(SynthConfig(n_normal_steps=20, n_anomalous_steps=2, rng_seed=3))
        cfg = StepSystemConfig(signal=SignalSelector("gyro", "l2"))
        runs = []
        for reject_at in (None, 500):
            det = StepGatedDetector(cfg)
            alarms = []
            for k, s in enumerate(rec.iter_samples()):
                if k == reject_at:
                    with pytest.raises(DataError):
                        det.push(SensorSample(0.0, (0.0, 0.0, 9.8), (1e200, 1e200, 0.0)))
                alarms.extend(det.push(s))
            alarms.extend(det.flush())
            runs.append((det.trace, det.step_events, det.admissions, alarms))
        assert runs[0][0] and runs[0][3]
        assert runs[1] == runs[0]

    def test_a_push_after_flush_raises_and_changes_nothing(self):
        # flush ends the stream: the next push raises before any state changes.
        # 900 readings pass the 3 s bootstrap horizon, so steps are segmented,
        # admitted and scored before the flush
        samples = make_recording()[0].samples
        runs = []
        for push_after_flush in (False, True):
            det = StepGatedDetector(StepSystemConfig())
            for s in samples[:900]:
                det.push(s)
            det.flush()
            if push_after_flush:
                with pytest.raises(ValueError, match="flush"):
                    det.push(samples[900])
            runs.append((det._raw_count, det.trace, det.admissions, det.step_events))
        assert runs[0][0] == 900 and all(runs[0][1:])
        assert runs[1] == runs[0]


def reading(k, value):
    """Reading k of a 100 Hz stream whose gyro:linf projection is |value|;
    a non-finite value skips SensorSample's checks to reach push."""
    return tuple.__new__(SensorSample, (k / 100.0, (0.0, 0.0, 9.81), (value, 0.0, 0.0)))


class NeverQuiet(StepGatedDetector):
    """A step-gated detector that takes no quiet push and runs a real
    StreamingEnvelope: every envelope value is compared with the step
    threshold and fed through _absorb_env, and the cold start's level is the
    largest envelope value."""

    def __init__(self, config):
        super().__init__(config)
        self._envelope = StreamingEnvelope(self._window)

    def push(self, sample):
        value = project(sample, self.cfg.signal)
        env = self._envelope.push(value)
        raw_i = self._raw_count
        self._raw_count = raw_i + 1
        self._sig.append(value)
        return () if env is None else self._absorb(env, raw_i)

    def flush(self):
        raw_i = max(0, self._raw_count - 1)
        alarms = [a for env in self._envelope.flush() for a in self._absorb(env, raw_i)]
        return (*alarms, *super().flush())

    def _absorb(self, env, raw_i):
        self._env_peak = max(self._env_peak, env)
        return self._absorb_env(env > self._step.threshold, raw_i)


def quiet_reference(rng, amplitude):
    """Three half-sine steps between quiet stretches, to prime History."""
    parts = [rng.normal(0.0, 1.0, 60)]
    for _ in range(3):
        parts += [amplitude * np.sin(np.linspace(0.0, np.pi, 40)), rng.normal(0.0, 1.0, 60)]
    return np.concatenate(parts)


def drive_quiet_stream(seed, plan, history_len_s, primed, end_gap, window_ms, cut):
    """Push a stream shaped by plan through a NeverQuiet detector with an
    envelope window of window_ms and flush it; return the detector, its
    alarms, the readings, the reference it was primed with (or None) and
    its _phys after each push, the readings trimmed from its buffer by then.
    With a cut, the plan starts at once and only its first cut readings
    are pushed.

    Readings are drawn one at a time, some against the threshold at the
    moment they are pushed: "near" is a burst at, just under or a hair over
    it; "tail" follows a step with readings at one share of it, up to the
    push whose "ended" event admits the step and may lower it, so that
    those readings lie between the new threshold and the old one."""
    rng = np.random.default_rng(seed)
    cfg = StepSystemConfig(history_len_s=history_len_s, envelope_window_ms=window_ms)
    det = NeverQuiet(cfg)
    amplitude = rng.uniform(40.0, 120.0)
    reference = quiet_reference(rng, amplitude) if primed else None
    if primed:
        det.prime_history(reference)
    values, alarms, trimmed = [], [], []

    def push(v):
        if cut is None or len(values) < cut:
            values.append(float(v))
            alarms.extend(det.push(reading(len(values) - 1, v)))
            trimmed.append(det._phys)

    def gap(n):
        for v in rng.normal(0.0, 1.0, n):
            push(v)

    lead = int(rng.integers(0, 350))
    gap(lead if cut is None else 0)
    for kind in plan:
        settled = det._step.threshold < INITIAL_THRESHOLD
        if kind == "gap" or not settled and kind == "near":
            gap(int(rng.integers(10, 400)))
        elif kind == "near":
            for _ in range(int(rng.integers(1, 30))):
                share = rng.choice([1.0, 1.0 - 1e-12, 0.999, 0.9, 1.0 + 1e-12])
                push(rng.choice([1.0, -1.0]) * share * det._step.threshold)
            gap(int(rng.integers(0, 30)))
        else:
            amplitude *= rng.uniform(0.6, 1.3)
            n = int(rng.integers(20, 61))
            for v in amplitude * np.sin(np.linspace(0.0, np.pi, n)) + rng.normal(0.0, 1.0, n):
                push(v)
            if kind == "tail" and settled:
                share, events = rng.uniform(0.5, 1.0), len(det.step_events)
                for _ in range(80):
                    push(share * det._step.threshold)
                    if any(e["kind"] == "ended" for e in det.step_events[events:]):
                        break
    gap(end_gap)
    alarms.extend(det.flush())
    return det, alarms, values, reference, trimmed


def with_swing(swing_s, history_len_s=10.0):
    """A 30-step walk at 100 Hz with a continuous 2 Hz gyro swing of
    ``swing_s`` spliced in straight after its fourth step, pushed unprimed
    through the default config but for history_len_s, unflushed (flush drops
    History's tables). Returns the detector, the most bytes the tables took
    after any push, and the step the swing runs into: its ordinal, its
    length, and its end event."""
    rate = 100.0
    rec, truth = generate(SynthConfig(n_normal_steps=30, n_anomalous_steps=0, rng_seed=0))
    at, n = truth[3].end, round(swing_s * rate)
    swing = np.zeros((n, 3))
    noise = np.random.default_rng(1).normal(0.0, 2.0, n)
    swing[:, 0] = 100.0 * np.sin(2 * np.pi * 2.0 * np.arange(n) / rate) + noise
    gyro = np.concatenate((rec.gyro[:at], swing, rec.gyro[at:]))
    accel = np.concatenate((rec.accel[:at], np.zeros((n, 3)), rec.accel[at:]))
    spliced = Recording(np.arange(gyro.shape[0]) / rate, accel, gyro, sample_rate_hz=rate)
    det = StepGatedDetector(StepSystemConfig(history_len_s=history_len_s))
    tables = 0
    for sample in spliced.iter_samples():
        det.push(sample)
        tables = max(tables, det._history._tables.nbytes)
    events = det.step_events
    for k, (start, end) in enumerate(zip(events[::2], events[1::2])):
        if start["index"] <= at < end["index"]:
            return det, tables, (k, end["index"] - start["index"], end)
    raise AssertionError("the swing ran into no step")


class TestHeldSteps:
    """An ended step longer than HOLD_RATIO times History's longest clean
    chunk was scored on a prefix alone: it is held, neither admitted nor
    quarantined."""

    def test_a_long_swing_is_held_and_the_tables_stay_small(self):
        # 20 s of swinging straight after a step, with 60 s of History:
        # admitted, it made a 2,053-reading chunk and 195 MB of tables
        det, tables, (k, length, end) = with_swing(20.0, history_len_s=60.0)
        assert length > 2000
        assert max(r.score for r in det.trace if r.step_ordinal == k) <= det.cfg.admission_guard
        assert not any(a["length"] >= length for a in det.admissions)
        clean = max(a["length"] for a in det.admissions if not a["provisional"])
        assert clean < 50
        # _carry_tables' bound, 32 bytes per row and History reading, with
        # the rows bounded by the longest clean chunk
        assert tables <= 32 * clean * det.cfg.history_len
        assert tables < 1_000_000

    @pytest.mark.parametrize("swing_s, length, admitted", [(0.05, 62, True), (0.08, 65, False)])
    def test_a_step_is_held_only_past_the_ratio(self, swing_s, length, admitted):
        # the swing's first readings lengthen the fourth step, scored like
        # the 43-reading steps before it on its first 43 or 44 readings:
        # 62 readings (ratio 1.44) are admitted, 65 (1.51) held
        det, _, (k, got, end) = with_swing(swing_s)
        assert got == length
        # the first clean step evicted the provisional chunk, so History
        # holds two 43-reading steps: 1.5 times that is 64.5
        before = [(a["length"], a["provisional"]) for a in det.admissions if a["seq"] < end["seq"] - 1]
        assert before == [(286, True), (43, False), (43, False)] and HOLD_RATIO * 43 == 64.5
        assert max(r.score for r in det.trace if r.step_ordinal == k) <= det.cfg.admission_guard
        made = [a["length"] for a in det.admissions if a["seq"] == end["seq"] - 1]
        assert made == ([length] if admitted else [])


class TestQuietPushes:
    """A quiet push of an armed run only stores its reading, and the run is
    counted when it ends, at flush, or where its buffer is trimmed; every
    output, and the trim schedule, stays what a push of each reading through
    the envelope and the segmenter gives."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        plan=st.lists(st.sampled_from(["gap", "near", "step", "tail"]), min_size=1, max_size=12),
        history_len_s=st.sampled_from([0.5, 1.0, 10.0]),
        primed=st.booleans(),
        end_gap=st.integers(0, 400),
        # envelope windows of 1, 9, 10 and 20 readings at 100 Hz; only past
        # 2 * release (5 readings) can a flushed tail position end a step
        # before the stream does
        window_ms=st.sampled_from([10.0, 90.0, 100.0, 200.0]),
        # streams shorter than the window, and a little longer
        cut=st.one_of(st.none(), st.integers(0, 12)),
    )
    # a long quiet tail, flushed inside it
    @example(seed=0, plan=["step", "step", "gap", "step", "gap"], history_len_s=10.0,
             primed=False, end_gap=400, window_ms=100.0, cut=None)
    # steps of falling amplitude each lower the threshold under the tail
    # before them
    @example(seed=1, plan=["tail", "tail", "gap", "tail", "near", "tail"], history_len_s=0.5,
             primed=True, end_gap=25, window_ms=100.0, cut=None)
    @example(seed=2, plan=["near", "step", "near", "gap", "near"], history_len_s=1.0,
             primed=True, end_gap=11, window_ms=100.0, cut=None)
    # an admission lowers the threshold under readings among the last w:
    # the quiet run must be counted again there
    @example(seed=166, plan=["near", "near"], history_len_s=0.5, primed=True, end_gap=0,
             window_ms=100.0, cut=None)
    @example(seed=1, plan=["step", "tail"], history_len_s=0.5, primed=True, end_gap=5,
             window_ms=100.0, cut=None)
    # a step ends at a push over the threshold, and its admission raises the
    # threshold over readings among the last w: they must count as calm
    @example(seed=1885, plan=["near", "step", "near"], history_len_s=1.0, primed=True,
             end_gap=0, window_ms=100.0, cut=None)
    # a position near the start, whose window holds fewer than w readings
    @example(seed=210219, plan=["near"], history_len_s=0.5, primed=True, end_gap=0,
             window_ms=90.0, cut=None)
    # flushed tail positions, whose windows run past the end, end a step
    @example(seed=0, plan=["gap", "gap"], history_len_s=0.5, primed=False, end_gap=0,
             window_ms=200.0, cut=None)
    # a quiet run of 726 readings, over two bootstrap horizons: it is counted
    # once where its buffer is trimmed, and again when a step ends it
    @example(seed=96, plan=["step", "gap", "gap", "step"], history_len_s=10.0, primed=False,
             end_gap=0, window_ms=100.0, cut=None)
    # a quiet run of 581 pending readings, counted at flush
    @example(seed=0, plan=["step", "step", "gap"], history_len_s=1.0, primed=True,
             end_gap=400, window_ms=100.0, cut=None)
    # a one-reading window, where a lone reading over the threshold makes no
    # step: the push that arms a run brings the buffer to the trim length
    @example(seed=305, plan=["near", "gap"] * 5, history_len_s=10.0, primed=True,
             end_gap=400, window_ms=10.0, cut=None)
    # primed and quiet from the first readings: the run is armed at the w-th
    @example(seed=0, plan=["gap", "step"], history_len_s=0.5, primed=True, end_gap=0,
             window_ms=100.0, cut=None)
    def test_outputs_match_a_detector_that_never_skips(
        self, seed, plan, history_len_s, primed, end_gap, window_ms, cut
    ):
        slow, slow_alarms, values, reference, slow_trimmed = drive_quiet_stream(
            seed, plan, history_len_s, primed, end_gap, window_ms, cut
        )
        fast = StepGatedDetector(slow.cfg)
        if primed:
            fast.prime_history(reference)
        alarms, trimmed = [], []
        for k, v in enumerate(values):
            alarms.extend(fast.push(reading(k, v)))
            trimmed.append(fast._phys)
        alarms.extend(fast.flush())
        # the buffer is trimmed at the same pushes
        assert trimmed == slow_trimmed
        assert fast._raw_count == slow._raw_count and fast._env_count == slow._env_count
        assert fast.step_events == slow.step_events
        assert fast.admissions == slow.admissions
        assert fast.trace == slow.trace
        assert alarms == slow_alarms
        assert [c.env_max for c in fast._history.chunks] == [c.env_max for c in slow._history.chunks]

    def test_the_detector_holds_at_most_27_attributes(self):
        # push reads many instance attributes, and CPython 3.11 reads them
        # more slowly from an instance that holds 30 or more; perfbench's
        # timed subclass adds two
        ref = make_recording(seed=1)[0].project(SignalSelector()).values
        det = StepGatedDetector(StepSystemConfig())
        det.prime_history(ref)
        replay(det, make_recording()[0])
        assert det.trace and det._history.chunks
        assert len(vars(det)) <= 27, sorted(vars(det))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_reading_in_a_quiet_stretch_changes_nothing(self, bad):
        rec, _ = generate(SynthConfig(n_normal_steps=10, n_anomalous_steps=2, rng_seed=3, tail_s=20.0))
        reject_at = rec.n - 500
        runs = []
        for reject in (False, True):
            det = StepGatedDetector(StepSystemConfig())
            alarms = []
            for k, s in enumerate(rec.iter_samples()):
                if k == reject_at and reject:
                    # inside an armed quiet run with readings pending: a
                    # reading at or under the threshold would only be stored
                    assert det._run_cap and len(det._sig) + det._phys > det._raw_count
                    before = copy.deepcopy(
                        (det._sig, det._raw_count, det._env_count, det._base, det._phys,
                         det._calm, det._env_peak, det._run_cap, det._threshold, vars(det._step))
                    )
                    with pytest.raises(DataError):
                        det.push(reading(k, bad))
                    assert (det._sig, det._raw_count, det._env_count, det._base, det._phys,
                            det._calm, det._env_peak, det._run_cap, det._threshold,
                            vars(det._step)) == before
                alarms.extend(det.push(s))
            alarms.extend(det.flush())
            runs.append((det.trace, det.step_events, det.admissions, alarms))
        assert runs[0][0] and runs[0][3]
        assert runs[1] == runs[0]

    def test_every_admitted_env_max_is_the_envelope_maximum_over_its_step(self):
        # a step chunk's env_max is taken from the readings its envelope
        # windows cover, which reach _left readings before the step: a step
        # that opens at a rebase that trims _sig needs the ones kept there
        rec, _ = generate(SynthConfig(n_normal_steps=10, n_anomalous_steps=2, rng_seed=8, tail_s=30.0))
        cfg = StepSystemConfig()
        det = StepGatedDetector(cfg)
        seen = []
        admit = det._history.admit

        def spy(chunk, cap):
            seen.append((chunk.env_max, det._phys))
            admit(chunk, cap)

        det._history.admit = spy
        replay(det, rec)
        w = envelope_window_samples(cfg.envelope_window_ms, cfg.sample_rate_hz)
        left = (w - 1) // 2
        env = envelope_by_definition(rec.project(cfg.signal).values, w)
        # an admission's event, "started" for the provisional chunk and
        # "ended" for a step, takes the next seq
        event = {e["seq"]: e for e in det.step_events}
        near_a_trim = 0
        for a, (env_max, phys) in zip(det.admissions, seen, strict=True):
            end = event[a["seq"] + 1]["index"]
            start = end - a["length"]
            assert env_max == env[start:end].max()
            # _sig was last trimmed to _left readings before the base phys + left
            near_a_trim += start - (phys + left) < left
        assert len(seen) == 10 and near_a_trim


class TestRecords:
    @pytest.mark.parametrize(
        "record, field",
        [
            (AlarmEvent(412, 4.12, 0.6, 57), "score"),
            (TraceRecord(5000, 4900, None, 100, 0.25), "step_ordinal"),
        ],
    )
    def test_immutable_and_hashable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert hash(record) == hash(type(record)(*record))
        assert len({record, type(record)(*record)}) == 1


class TestSerialization:
    def test_alarm_round_trip(self, tmp_path, tremor_run):
        _, _, _, res = tremor_run
        p = tmp_path / "alarms.jsonl"
        dump_jsonl(res.alarms, p)
        assert load_jsonl(AlarmEvent, p) == list(res.alarms)

    def test_trace_round_trip(self, tmp_path, tremor_run):
        _, _, _, res = tremor_run
        p = tmp_path / "trace.jsonl"
        dump_jsonl(res.trace, p)
        assert load_jsonl(TraceRecord, p) == list(res.trace)

    def test_empty_round_trip(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        dump_jsonl([], p)
        assert load_jsonl(AlarmEvent, p) == []

    def test_line_format_is_pinned(self, tmp_path):
        # gaitmp detect writes these files: one object per line, keys in
        # field order, None as null
        records = [
            AlarmEvent(412, 4.12, 0.6180339887498949, 57),
            TraceRecord(5000, 4900, None, 100, 0.25),
        ]
        p = tmp_path / "mixed.jsonl"
        dump_jsonl(records, p)
        assert p.read_text() == (
            '{"sample_index": 412, "time_s": 4.12, "score": 0.6180339887498949, "query_len": 57}\n'
            '{"sample_index": 5000, "query_index": 4900, "step_ordinal": null, '
            '"query_len": 100, "score": 0.25}\n'
        )


class PerChunkHistory:
    """Reference scorer: History as separate chunk arrays, one distance
    profile per chunk at least as long as the query, and FIFO eviction that
    re-sums the chunk lengths. Same interface as the detector's _History."""

    def __init__(self):
        self.chunks = []

    @property
    def buffer(self):
        return np.concatenate([c.values for c in self.chunks]) if self.chunks else np.empty(0)

    def admit(self, chunk, cap):
        if not chunk.provisional:
            self.chunks = [c for c in self.chunks if not c.provisional]
        self.chunks.append(
            _Chunk(np.asarray(chunk.values, dtype=np.float64), chunk.env_max, chunk.provisional)
        )
        while len(self.chunks) > 1 and sum(c.values.size for c in self.chunks) > cap:
            self.chunks.pop(0)

    def reset_query(self):
        pass  # every call scores its query from scratch

    def release_tables(self):
        pass  # no tables: flush has nothing to drop

    def best_distance(self, query):
        best = math.inf
        for chunk in self.chunks:
            if chunk.values.size >= query.size:
                best = min(best, float(distance_profile(query, chunk.values).min()))
        return best


class Run(NamedTuple):
    """A replayed detector and the alarms its replay raised."""

    detector: StepGatedDetector
    alarms: list


def replay_both(rec, cfg, reference=None):
    fast = StepGatedDetector(cfg)
    slow = StepGatedDetector(cfg)
    slow._history = PerChunkHistory()
    if reference is not None:
        fast.prime_history(reference)
        slow.prime_history(reference)
    return Run(fast, replay(fast, rec).alarms), Run(slow, replay(slow, rec).alarms)


def assert_same_run(fast, slow):
    key = lambda a: (a.sample_index, a.query_len)  # noqa: E731
    assert [key(a) for a in fast.alarms] == [key(a) for a in slow.alarms]
    assert fast.detector.admissions == slow.detector.admissions
    assert fast.detector.step_events == slow.detector.step_events
    row = lambda r: (r.sample_index, r.query_index, r.step_ordinal, r.query_len)  # noqa: E731
    assert [row(r) for r in fast.detector.trace] == [row(r) for r in slow.detector.trace]
    scores = np.array([r.score for r in fast.detector.trace])
    expected = np.array([r.score for r in slow.detector.trace])
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)
    assert fast.detector._history.buffer.size == slow.detector._history.buffer.size
    assert [c.values.size for c in fast.detector._history.chunks] == [
        c.values.size for c in slow.detector._history.chunks
    ]


class DefinitionHistory(PerChunkHistory):
    """PerChunkHistory scoring each chunk by the plain definition."""

    def best_distance(self, query):
        chunks = [c.values for c in self.chunks if c.values.size >= query.size]
        return min((definition_best(query, c) for c in chunks), default=math.inf)


def quantized_recording(seed, lead_in_s):
    """A noiseless synthetic walk after lead_in_s of rest, read through a gyro
    with a bias and a 0.07 deg/s resolution: at rest every reading is the
    same nonzero value."""
    rec, _ = generate(SynthConfig(noise_std=0.0, rng_seed=seed, lead_in_s=lead_in_s))
    gyro = np.round((rec.gyro + (0.61, -0.35, 0.27)) / 0.07) * 0.07
    return Recording(rec.t, rec.accel, gyro, rec.sample_rate_hz)


class TestQuantizedReplayMatchesDefinition:
    @pytest.mark.parametrize("lead_in_s, min_steps", [(2.0, 11), (4.0, 1)])
    @pytest.mark.parametrize("seed", range(6))
    def test_scores(self, seed, lead_in_s, min_steps):
        # a sensor at rest gives exactly constant History windows at a nonzero
        # level, whose running sums cancel. Alarms are not compared: a
        # constant reference window scores exactly 0.5, and at threshold 0.5
        # the definition's last-ulp rounding decides that tie. A 4 s lead-in
        # outlasts the bootstrap horizon, so the detector finds one step of
        # 12 and scores it against the provisional chunk alone; a 2 s lead-in
        # finds the gait and scores rows against tabled History
        rec = quantized_recording(seed, lead_in_s)
        det = StepGatedDetector(StepSystemConfig())
        oracle = StepGatedDetector(StepSystemConfig())
        oracle._history = DefinitionHistory()
        got, want = replay(det, rec), replay(oracle, rec)
        assert sum(e["kind"] == ENDED for e in det.step_events) >= min_steps
        assert got.trace and det.admissions == oracle.admissions
        assert det.step_events == oracle.step_events
        row = lambda r: (r.sample_index, r.query_index, r.step_ordinal, r.query_len)  # noqa: E731
        assert [row(r) for r in got.trace] == [row(r) for r in want.trace]
        np.testing.assert_allclose(
            [r.score for r in got.trace], [r.score for r in want.trace], rtol=0, atol=1e-9
        )


class TestContiguousHistoryMatchesPerChunkScoring:
    @pytest.mark.parametrize("kind", ANOMALY_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay(self, kind, seed):
        rec, _ = make_recording(kind, seed)
        fast, slow = replay_both(rec, StepSystemConfig())
        assert fast.detector.trace and fast.detector.admissions
        assert_same_run(fast, slow)

    @pytest.mark.parametrize("history_len_s", [0.6, 1.5])
    def test_tiny_history_evicts_every_admission(self, history_len_s):
        rec, _ = make_recording("time-warped", 4)
        fast, slow = replay_both(rec, StepSystemConfig(history_len_s=history_len_s))
        assert len(fast.detector.admissions) > len(fast.detector._history.chunks) + 5
        assert_same_run(fast, slow)

    def test_primed_history(self):
        rec, _ = make_recording("amplitude-scaled", 5)
        ref = rec.project(SignalSelector()).values[:400]
        fast, slow = replay_both(rec, StepSystemConfig(), reference=ref)
        assert fast.detector.admissions[0]["sample_index"] == -1
        assert_same_run(fast, slow)


class TestHistoryBuffer:
    def test_chunks_are_views_of_one_buffer(self, tremor_run):
        _, _, det, _ = tremor_run
        history = det._history
        assert sum(c.values.size for c in history.chunks) == history.buffer.size
        assert all(np.shares_memory(c.values, history.buffer) for c in history.chunks)

    def test_window_straddling_a_chunk_boundary_is_ignored(self):
        rng = np.random.default_rng(7)
        query = np.sin(np.linspace(0.0, 3.0 * np.pi, 30))
        a = np.concatenate([rng.normal(size=40), query[:15]])
        b = np.concatenate([query[15:], rng.normal(size=40)])
        history = _History()
        history.admit(_Chunk(a, 1.0), cap=1000)
        history.admit(_Chunk(b, 1.0), cap=1000)
        whole = distance_profile(query, history.buffer)
        # the globally closest window starts 15 samples before the boundary
        assert int(np.argmin(whole)) == 40 and whole.min() < 1e-9
        per_chunk = min(distance_profile(query, a).min(), distance_profile(query, b).min())
        assert history.best_distance(query) == pytest.approx(per_chunk, abs=1e-9)
        assert history.best_distance(query) > 1.0

    def test_growth_rows_skip_a_straddling_exact_match(self):
        # the straddling window matches every row exactly, and a third chunk
        # holds a copy nudged by 3e-8: both are near-duplicates, and only the
        # nudged copy counts
        rng = np.random.default_rng(12)
        query = np.sin(np.linspace(0.0, 3.0 * np.pi, 30))
        a = np.concatenate([rng.normal(size=40), query[:15]])
        b = np.concatenate([query[15:], rng.normal(size=40)])
        c = np.concatenate([rng.normal(size=10), query + rng.normal(0.0, 3e-8, 30)])
        history = _History()
        for chunk in (a, b, c):
            history.admit(_Chunk(chunk, 1.0), cap=1000)
        for m in range(16, 31):
            got = history.best_distance(query[:m])
            assert got == pytest.approx(masked_best(query[:m], history), rel=0, abs=1e-9)
            assert got > 1e-8

    def test_query_longer_than_every_chunk_is_unscored(self):
        history = _History()
        history.admit(_Chunk(np.sin(np.arange(40.0)), 1.0), cap=1000)
        history.admit(_Chunk(np.cos(np.arange(30.0)), 1.0), cap=1000)
        assert history.best_distance(np.sin(np.arange(40.0))) < 1e-9
        assert history.best_distance(np.sin(np.arange(41.0))) == math.inf


def masked_best(query, history):
    """The oracle of _History.best_distance: one distance profile over the
    whole buffer, windows that straddle a chunk boundary dropped."""
    if query.size > history.longest:
        return math.inf
    d = distance_profile(query, history.buffer)
    return float(d[history.room[: d.size] >= query.size].min())


def assert_row_matches(got, query, history):
    """A score row equals masked_best within 1e-9, with one exception: a
    row that the window tables answered, seed or growth row, is held,
    within 1e-9, to the least of each chunk's own distance profile instead.
    Its window moments come from one chunk's running sums, as that oracle's
    do; at a near match of a short query the whole buffer's running sums
    lose digits (D2) and masked_best parts from both (1.3e-9 at m = 3 in the
    pinned TestGrowthRows example, 7.9e-9 at m = 4 in its seed=13049 draw)."""
    want = masked_best(query, history)
    if math.isinf(want):
        assert got == want
        return
    sd_q = math.sqrt(history._m2 / history._m)
    if history._best_from_table(sd_q) is not None:
        want = min(
            float(distance_profile(query, c.values).min())
            for c in history.chunks
            if c.values.size >= query.size
        )
    assert got == pytest.approx(want, rel=0, abs=1e-9), query.size


def draw_history(rng, kinds, level):
    """Chunks of the listed kinds: gait-scale noise, a verbatim repeat of the
    previous chunk, a constant chunk at ``level`` and noise longer than
    LONG readings."""
    chunks = []
    for kind in kinds:
        n = int(rng.integers(20, 120))
        if kind == "repeat" and chunks:
            chunks.append(chunks[-1].copy())
        elif kind == "constant":
            chunks.append(np.full(n, level))
        else:
            if kind == "long":
                n = LONG + int(rng.integers(1, 200))
            chunks.append(rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), n))
    return chunks


def draw_query(rng, kind, chunks, length, level):
    """A query of ``length`` samples: a copy of a stretch of a varying chunk
    (exact or nudged by 1e-7, padded with noise past the chunk's end), a copy
    of a stretch across a chunk boundary, noise, or a constant at ``level``.
    A nudged copy of a constant chunk, or of a run of one value, would be a
    query (or a prefix of one) with stdev ~1e-7 at ``level``, where the fast
    formula itself loses the digits compared here, so a copy that repeats a
    value stays exact. (An exactly constant chunk can have a numpy std of
    2.2e-16, not 0.)"""
    varying = [c for c in chunks if c.min() != c.max()]
    if kind == "constant":
        return np.full(length, level)
    if kind == "noise" or not varying:
        return rng.normal(0.0, 1.0, length)
    if kind == "across" and len(chunks) > 1:
        # its exact match straddles a boundary and must not count
        buffer = np.concatenate(chunks)
        start = chunks[0].size - int(rng.integers(1, min(chunks[0].size, length)))
        return np.concatenate([buffer[start : start + length], rng.normal(0.0, 1.0, length)])[:length]
    source = varying[int(rng.integers(len(varying)))]
    start = int(rng.integers(source.size))
    q = np.concatenate([source[start : start + length], rng.normal(0.0, 1.0, length)])[:length]
    if kind == "nudged" and (q[1:] != q[:-1]).all():
        q = q + rng.normal(0.0, 1e-7, length)
    return q


@pytest.mark.deep
class TestGrowthRows:
    """Each growth row of _History.best_distance matches a fresh distance
    profile over the buffer, masked to windows inside one chunk."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["noise", "repeat", "constant", "long"]), min_size=1, max_size=4),
        query_kind=st.sampled_from(["copy", "nudged", "across", "noise", "constant"]),
        level=st.floats(0.5, 20.0) | st.floats(-20.0, -0.5),
        past_longest=st.booleans(),
    )
    @example(seed=1, kinds=["noise", "repeat"], query_kind="copy", level=3.0, past_longest=False)
    # a constant chunk at a level where the running sums cancel
    @example(seed=2, kinds=["noise", "constant"], query_kind="noise", level=9.81, past_longest=False)
    # constant windows: at 0 from a constant query, at sqrt(m) from the rest
    @example(seed=3, kinds=["constant", "noise"], query_kind="constant", level=-4.5, past_longest=True)
    @example(seed=6, kinds=["constant", "noise"], query_kind="noise", level=2.5, past_longest=False)
    @example(seed=4, kinds=["long", "noise"], query_kind="nudged", level=1.0, past_longest=False)
    @example(seed=5, kinds=["noise", "noise"], query_kind="noise", level=1.0, past_longest=True)
    @example(seed=7, kinds=["noise", "repeat"], query_kind="across", level=1.0, past_longest=False)
    # a seed row at m = 3, ranked from the tables 1.3e-9 off masked_best
    @example(seed=41072, kinds=["long", "repeat", "long"], query_kind="noise", level=1.0,
             past_longest=False)
    def test_every_row_matches_a_fresh_distance_profile(
        self, seed, kinds, query_kind, level, past_longest
    ):
        rng = np.random.default_rng(seed)
        chunks = draw_history(rng, kinds, level)
        history = _History()
        # a cap that just holds them sizes the tables to the buffer
        cap = sum(c.size for c in chunks)
        for c in chunks:
            history.admit(_Chunk(c, 1.0), cap=cap)
        longest = history.longest
        length = longest + int(rng.integers(1, 4)) if past_longest else int(rng.integers(3, longest + 1))
        query = draw_query(rng, query_kind, chunks, length, level)
        for m in range(max(3, length - 40), length + 1):
            assert_row_matches(history.best_distance(query[:m]), query[:m], history)

    def test_a_tabled_row_is_nearer_the_definition_than_the_whole_buffers_sums(self):
        # test_every_row_matches_a_fresh_distance_profile's seed=13049 draw
        # (query_kind "noise", level 1): four chunks of over LONG readings
        # and a near match of a 4-reading query, where running sums of the
        # whole buffer lose digits (D2) that each chunk's own sums keep
        rng = np.random.default_rng(13049)
        chunks = draw_history(rng, ["long"] * 4, 1.0)
        history = _History()
        # a cap that just holds them sizes the tables to the buffer
        cap = sum(c.size for c in chunks)
        for c in chunks:
            history.admit(_Chunk(c, 1.0), cap=cap)
        length = int(rng.integers(3, history.longest + 1))
        query = draw_query(rng, "noise", chunks, length, 1.0)[:4]
        got = history.best_distance(query)
        assert history._best_from_table(math.sqrt(history._m2 / history._m)) is not None
        by_chunk = min(float(distance_profile(query, c).min()) for c in chunks)
        assert got == pytest.approx(by_chunk, rel=0, abs=1e-12)
        exact = min(
            znorm_distance(query, c[j : j + 4]) for c in chunks for j in range(c.size - 3)
        )
        assert abs(got - exact) < abs(masked_best(query, history) - exact)

    @pytest.mark.parametrize("between", ["admission", "quarantine"])
    def test_consecutive_steps_share_no_state(self, between):
        rng = np.random.default_rng(11)
        history = _History()
        history.admit(_Chunk(rng.normal(size=80), 1.0), cap=1000)
        first = rng.normal(size=40)
        for m in range(25, 41):
            history.best_distance(first[:m])
        # admitting a step rebuilds History, which resets the query; a
        # quarantined step leaves History as it was, and the next step start
        # resets it
        if between == "admission":
            history.admit(_Chunk(rng.normal(size=60), 1.0), cap=1000)
        else:
            history.reset_query()
        # the next step is one sample longer than the last row, as a
        # continued query would be, but shares none of its samples
        second = rng.normal(size=50)
        for m in range(41, 51):
            assert history.best_distance(second[:m]) == pytest.approx(
                masked_best(second[:m], history), rel=0, abs=1e-9
            )


def draw_table_chunk(rng, kind, shortest, level):
    """One chunk for the window tables: noise a few readings either side of
    the shortest query, noise well past it (new table rows), noise with a
    run of one repeated value, a constant, or a tiny variance at ``level``."""
    n = shortest + int(rng.integers(-2, 9))
    if kind == "long":
        n = shortest + int(rng.integers(10, 40))
    x = rng.normal(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0), max(n, 2))
    if kind == "repeat":
        p = int(rng.integers(x.size))
        x[p : p + int(rng.integers(2, shortest + 4))] = x[p]
    elif kind == "constant":
        x[:] = level
    elif kind == "quiet":
        x = level + 1e-9 * x
    return x


def tables_by_definition(history):
    """Each held chunk's s1 and m*S2 - S1^2 by plain sums over its windows,
    in table layout, with the mask of windows inside a chunk."""
    lo, n = history._lo, history.buffer.size
    rows = history._s1.shape[0]
    s1, div, inside = np.zeros((rows, n)), np.zeros((rows, n)), np.zeros((rows, n), dtype=bool)
    start = 0
    for c in history.chunks:
        x = c.values
        for r in range(rows):
            m = lo + r
            for j in range(x.size - m + 1):
                w = x[j : j + m]
                s1[r, start + j] = w.sum()
                div[r, start + j] = m * (w * w).sum() - w.sum() ** 2
                inside[r, start + j] = True
        start += x.size
    return s1, div, inside


def assert_tables_match_a_fresh_build(history, cap):
    """The carried tables equal those of a History that admits the held
    chunks afresh, and the plain sums of every window. A provisional chunk,
    or one longer than ``cap``, is held alone, and History then holds no
    tables."""
    n = history.buffer.size
    if history.chunks[0].provisional or history.longest > cap:
        assert len(history.chunks) == 1
        assert history._tables.size == 0 and not history._usable
        return
    fresh = _History(history._lo)
    for c in history.chunks:
        fresh.admit(_Chunk(c.values.copy(), c.env_max), cap=10**9)
    rows = max(0, history.longest - history._lo + 1)
    assert history._s1.shape[0] >= rows
    for carried, built in ((history._s1, fresh._s1), (history._inv, fresh._inv)):
        np.testing.assert_array_equal(carried[:rows, :n], built[:rows, :n])
        # rows kept after the longest chunk left hold no window
        assert not carried[rows:, :n].any()
    assert history._usable[:rows] == fresh._usable[:rows]
    s1, div, inside = tables_by_definition(fresh)
    live_s1, live_inv = fresh._s1[:, :n], fresh._inv[:, :n]
    assert not live_s1[~inside].any() and not live_inv[~inside].any()
    np.testing.assert_allclose(live_s1[inside], s1[inside], rtol=1e-12, atol=1e-9)
    # inv where the window's divisor lies clear of the running sums' rounding
    clear = inside & (div > 1e-6 * np.abs(s1) ** 2)
    np.testing.assert_allclose(live_inv[clear], 1.0 / np.sqrt(div[clear]), rtol=1e-6)


def check_rows_and_tables(seed, shortest, kinds, cap, start, query_kind, level):
    """Admit the drawn chunks one by one; after each, compare the carried
    tables with a fresh build and every growth row of a drawn query with
    masked_best."""
    rng = np.random.default_rng(seed)
    history = _History(shortest)

    def admit(values, provisional=False):
        limit = values.size if cap == "own" else cap
        history.admit(_Chunk(values, 1.0, provisional), limit)
        assert_tables_match_a_fresh_build(history, limit)

    if start == "provisional":
        admit(rng.normal(0.0, 2.0, 3 * shortest), provisional=True)
    elif start == "primed":
        for part in np.array_split(rng.normal(1.0, 2.0, 4 * shortest), 3):
            admit(part)
    for kind in kinds:
        admit(draw_table_chunk(rng, kind, shortest, level))
        chunks = [c.values for c in history.chunks]
        length = shortest + int(rng.integers(0, history.longest - shortest + 3))
        query = draw_query(rng, query_kind, chunks, length, level)
        history.reset_query()
        for m in range(shortest, length + 1):
            assert_row_matches(history.best_distance(query[:m]), query[:m], history)


class TestWindowTables:
    """Growth rows read window tables that each chunk's admission extends:
    every row matches a fresh distance profile over the buffer, masked to
    windows inside one chunk, and after every admission the carried tables
    equal tables built from scratch for the held chunks."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shortest=st.integers(3, 30),
        kinds=st.lists(
            st.sampled_from(["noise", "long", "repeat", "constant", "quiet"]), min_size=1, max_size=8
        ),
        # "own": each admission's cap is the chunk's own length, so it
        # evicts every chunk before; at cap 1 no chunk has entries; at cap
        # 40 a long chunk may outgrow the cap after tabled ones
        cap=st.sampled_from(["own", 1, 40, 80, 10**6]),
        start=st.sampled_from(["empty", "provisional", "primed"]),
        query_kind=st.sampled_from(["copy", "nudged", "across", "noise", "constant"]),
        level=st.floats(0.5, 20.0) | st.floats(-20.0, -0.5),
    )
    # a cap so small that every admission evicts, rows growing and shrinking
    @example(seed=0, shortest=5, kinds=["long", "noise", "long", "noise"], cap="own",
             start="empty", query_kind="copy", level=1.0)
    # every chunk longer than the cap, held alone without entries
    @example(seed=5, shortest=4, kinds=["noise", "long"], cap=1, start="primed",
             query_kind="copy", level=1.0)
    # a chunk longer than the cap drops the tables of the chunks it evicts
    @example(seed=0, shortest=20, kinds=["noise", "long", "noise", "long"], cap=40, start="primed",
             query_kind="copy", level=1.0)
    # the longest chunk evicted while shorter ones stay
    @example(seed=1, shortest=8, kinds=["long", "noise", "noise", "noise"], cap=80, start="primed",
             query_kind="nudged", level=1.0)
    # a History that holds a provisional chunk keeps no tables, and every row
    # falls back while it is held
    @example(seed=2, shortest=6, kinds=["noise", "repeat"], cap=10**6, start="provisional",
             query_kind="noise", level=3.0)
    # a tiny variance at a level and a repeated value: those rows fall back
    @example(seed=3, shortest=10, kinds=["quiet", "repeat", "noise"], cap=10**6, start="empty",
             query_kind="noise", level=7.93)
    @example(seed=4, shortest=4, kinds=["constant", "noise"], cap=10**6, start="empty",
             query_kind="constant", level=-4.5)
    # a quiet chunk at a level, alone: its windows' moments are rounding
    # noise, and the fallback must take the query's as distance_profile does
    @example(seed=0, shortest=3, kinds=["noise", "noise", "quiet"], cap=1, start="primed",
             query_kind="copy", level=2.5)
    # every seed row (m = shortest) ranks from table row 0
    @example(seed=6, shortest=12, kinds=["noise", "long"], cap=10**6, start="empty",
             query_kind="noise", level=1.0)
    def test_rows_and_tables_after_every_admission(
        self, seed, shortest, kinds, cap, start, query_kind, level
    ):
        check_rows_and_tables(seed, shortest, kinds, cap, start, query_kind, level)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="D2: growth row m = 5 reads 2.4e-9 off masked_best; its best window "
        "has stdev 5.2e-4 at level 1.41, and the running sums lose the digits",
    )
    def test_quiet_window_at_a_level_holds_the_oracle(self):
        check_rows_and_tables(
            seed=145, shortest=3, kinds=["repeat", "repeat"], cap=40, start="primed",
            query_kind="noise", level=1.0,
        )

    def test_admission_peaks_near_the_tables_size(self):
        # a chunk's block is read through a view of its own running sums:
        # admitting a 1,000-reading chunk peaks at the tables and one
        # block-sized temporary, with no index of every window's end
        history = _History(25)
        values = np.random.default_rng(0).normal(size=1000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            history.admit(_Chunk(values, 1.0), cap=1000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert history._tables.nbytes > 0
        assert peak <= 2.5 * history._tables.nbytes

    def test_flush_releases_the_tables_and_keeps_the_rest(self):
        rec, _ = make_recording("time-warped", 2)
        det = StepGatedDetector(StepSystemConfig())
        kept = StepGatedDetector(StepSystemConfig())
        kept._history.release_tables = lambda: None
        got, want = replay(det, rec), replay(kept, rec)
        assert det._history._tables.size == 0 and not det._history._usable
        assert kept._history._tables.size > 0 and any(kept._history._usable)
        np.testing.assert_array_equal(det._history.buffer, kept._history.buffer)
        assert [c.values.tolist() for c in det._history.chunks] == [
            c.values.tolist() for c in kept._history.chunks
        ]
        assert got.trace == want.trace and got.alarms == want.alarms
        assert det.admissions == kept.admissions
        # a History without tables still scores, every growth row by the fallback
        query = det._history.chunks[-1].values[::-1].copy()
        for history in (det._history, kept._history):
            history.reset_query()
        for m in range(kept.cfg.min_query_len, query.size + 1):
            assert det._history.best_distance(query[:m]) == pytest.approx(
                kept._history.best_distance(query[:m]), rel=0, abs=1e-9
            )


class TestSeedRows:
    """The first score row of a step (the seed row, m = the shortest query)
    ranks from the window tables when they can answer it, and otherwise takes
    one distance profile over the buffer."""

    SHORTEST = StepSystemConfig().min_query_len

    def two_chunks(self):
        rng = np.random.default_rng(21)
        history = _History(self.SHORTEST)
        for n in (60, 45):
            history.admit(_Chunk(rng.normal(size=n), 1.0), cap=1000)
        return history, rng

    def count_profiles(self, monkeypatch):
        """The query length of each distance_profile call the detector makes."""
        calls = []

        def counted(query, series):
            calls.append(query.size)
            return distance_profile(query, series)

        monkeypatch.setattr("gaitmp.detectors.distance_profile", counted)
        return calls

    def test_a_varying_query_ranks_from_the_tables(self, monkeypatch):
        history, rng = self.two_chunks()
        query = rng.normal(size=self.SHORTEST)
        want = masked_best(query, history)

        def refuse(query, series):
            raise AssertionError("the seed row took a distance profile")

        monkeypatch.setattr("gaitmp.detectors.distance_profile", refuse)
        assert history._usable[0]
        assert history.best_distance(query) == pytest.approx(want, rel=0, abs=1e-9)

    def test_a_near_duplicate_takes_one_distance_profile(self, monkeypatch):
        history, _ = self.two_chunks()
        query = history.chunks[1].values[5 : 5 + self.SHORTEST].copy()
        want = masked_best(query, history)
        calls = self.count_profiles(monkeypatch)
        got = history.best_distance(query)
        assert calls == [self.SHORTEST]
        assert got == pytest.approx(want, rel=0, abs=1e-9)

    def test_a_walk_takes_one_distance_profile_for_its_provisional_first_step(self, monkeypatch):
        rec, _ = generate(SynthConfig(n_normal_steps=58, n_anomalous_steps=2, rng_seed=8))
        calls, seeds = self.count_profiles(monkeypatch), []
        seed = _History._seed

        def counted_seed(history, query):
            before = len(calls)
            best = seed(history, query)
            seeds.append((history.chunks[-1].provisional, len(calls) - before))
            return best

        monkeypatch.setattr(_History, "_seed", counted_seed)
        # the reference scores every row by per-chunk distance profiles
        # through gaitmp.mp, which the counter does not see
        fast, slow = replay_both(rec, StepSystemConfig())
        assert len(seeds) == len({r.step_ordinal for r in fast.detector.trace}) > 1
        assert seeds[0] == (True, 1)
        assert all(seeded == (False, 0) for seeded in seeds[1:])
        assert_same_run(fast, slow)
