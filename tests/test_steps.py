import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmp.steps import (
    INITIAL_THRESHOLD,
    STARTED,
    StepDetector,
    StepEvent,
)
from oracle import segments_by_definition


def detector(rate=100.0, **kw):
    return StepDetector(sample_rate_hz=rate, **kw)


def pulse_train(n_pulses=5, period=100, width=30, amp=200.0, n_pad=50):
    """Well-separated unimodal bumps, one per step, plus impact positions."""
    n = n_pad * 2 + n_pulses * period
    x = np.zeros(n)
    impacts = []
    for k in range(n_pulses):
        c = n_pad + k * period + period // 2
        i = np.arange(n)
        x += amp * np.exp(-0.5 * ((i - c) / (width / 4)) ** 2)
        impacts.append(c)
    return x, impacts


def segments_from_events(events):
    """Pair started/ended events back into ordered (start, end) segments;
    unbalanced events and empty or negative ranges raise, so streams that
    emit them fail the tests that use this."""
    segments = []
    start = None
    for ev in events:
        if ev.kind == STARTED:
            if start is not None:
                raise ValueError("started event while a step is already open")
            start = ev.index
        else:
            if start is None:
                raise ValueError("ended event without a started event")
            if not 0 <= start < ev.index:
                raise ValueError(f"bad segment [{start}, {ev.index})")
            segments.append((start, ev.index))
            start = None
    if start is not None:
        raise ValueError("stream ended with an unterminated step")
    return segments


def stream_segments(det, env):
    events = [ev for v in env for ev in det.feed(v)]
    events.extend(det.flush())
    return segments_from_events(events), events


def checked_segments(det, env):
    """The streamed segments of env, after checking that they are the
    segments of the definition."""
    segs, _ = stream_segments(det, env)
    assert segs == segments_by_definition(det, env)
    return segs


class TestThreshold:
    def test_fresh_detector_starts_at_initial(self):
        assert detector().threshold == INITIAL_THRESHOLD == 1e12

    def test_fraction_of_max(self):
        det = detector()
        assert det.recompute_threshold(np.array([10.0, 200.0, 50.0]).max()) == 100.0

    def test_zero_history_clamps_to_floor(self):
        det = detector()
        assert det.recompute_threshold(np.zeros(100).max()) == 1e-6

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            detector(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            detector(threshold_fraction=1.5)


class TestBoundaries:
    def test_flat_zero_envelope(self):
        det = detector()
        det.threshold = 1.0
        assert checked_segments(det, np.zeros(500)) == []

    def test_rectangular_pulse_exact_extent(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(100)
        env[40:60] = 5.0
        assert checked_segments(det, env) == [(40, 60)]

    def test_offsets_widen_segment(self):
        det = detector(onset_ms=50.0, release_ms=50.0, min_step_ms=0.0)  # 5 samples each
        det.threshold = 1.0
        env = np.zeros(100)
        env[40:60] = 5.0
        assert checked_segments(det, env) == [(35, 65)]

    def test_offsets_clamp_to_data(self):
        det = detector(onset_ms=50.0, release_ms=50.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(50)
        env[2:48] = 5.0
        assert checked_segments(det, env) == [(0, 50)]

    def test_short_blip_dropped(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=150.0)  # 15 samples
        det.threshold = 1.0
        env = np.zeros(100)
        env[40:50] = 5.0  # 10 samples < 15
        assert checked_segments(det, env) == []

    def test_close_pulses_merge(self):
        det = detector(onset_ms=50.0, release_ms=50.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(200)
        env[50:70] = 5.0
        env[75:95] = 5.0  # gap 5 < onset+release
        assert checked_segments(det, env) == [(45, 100)]

    def test_separated_pulses_stay_apart(self):
        det = detector(onset_ms=50.0, release_ms=50.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(300)
        env[50:70] = 5.0
        env[120:140] = 5.0
        assert checked_segments(det, env) == [(45, 75), (115, 145)]

    def test_five_pulses_cover_impacts(self):
        env, impacts = pulse_train(n_pulses=5)
        det = detector()
        det.recompute_threshold(env.max())
        segs = checked_segments(det, env)
        assert len(segs) == 5
        for (start, end), c in zip(segs, impacts):
            assert start <= c < end

    def test_open_segment_at_end_is_kept(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(100)
        env[80:] = 5.0
        assert checked_segments(det, env) == [(80, 100)]

    def test_monotone_in_threshold_fraction_on_pulse_train(self):
        env, _ = pulse_train(n_pulses=6, amp=200.0)
        counts = []
        for frac in (0.2, 0.4, 0.6, 0.8, 0.99):
            det = detector(threshold_fraction=frac)
            det.recompute_threshold(env.max())
            counts.append(len(checked_segments(det, env)))
        assert counts == sorted(counts, reverse=True)


class TestStreaming:
    def test_single_pulse_event_pair(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=0.0)
        det.threshold = 1.0
        env = np.zeros(100)
        env[40:60] = 5.0
        segs, events = stream_segments(det, env)
        assert [e.kind for e in events] == ["started", "ended"]
        assert segs == [(40, 60)]

    def test_sub_threshold_stream_silent(self):
        det = detector()
        det.threshold = 10.0
        segs, events = stream_segments(det, np.ones(200))
        assert events == [] and segs == []

    def test_flush_restarts_the_count(self):
        # the stream ends inside the last pulse, so flush settles an open step
        env = pulse_train()[0][:505]
        fresh = detector()
        fresh.threshold = 100.0
        expected = stream_segments(fresh, env)[1]
        det = detector()
        det.threshold = 100.0
        stream_segments(det, env)
        again = stream_segments(det, env)[1]
        assert again == expected
        assert len(expected) == 10

    def test_started_deferred_until_survival_is_certain(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=150.0)
        det.threshold = 1.0
        env = np.zeros(100)
        env[20:60] = 5.0
        emitted_at = {}
        for i, v in enumerate(env):
            for ev in det.feed(v):
                emitted_at[ev] = i
        det.flush()
        started = StepEvent("started", 20)
        # guaranteed length 15 is reached at sample 34, not at the rise
        assert emitted_at[started] == 34

    def test_short_blip_emits_nothing(self):
        det = detector(onset_ms=0.0, release_ms=0.0, min_step_ms=150.0)
        det.threshold = 1.0
        env = np.zeros(100)
        env[40:50] = 5.0
        segs, events = stream_segments(det, env)
        assert events == [] and segs == []

    def test_merge_rescues_short_run(self):
        # each run is 10 < min 15, but the merged extent is 26 >= 15
        det = detector(onset_ms=30.0, release_ms=30.0, min_step_ms=150.0)
        det.threshold = 1.0
        env = np.zeros(200)
        env[50:60] = 5.0
        env[63:73] = 5.0
        expected = segments_by_definition(det, env)
        assert expected == [(47, 76)]
        segs, _ = stream_segments(det, env)
        assert segs == expected

    @pytest.mark.parametrize("case", ["mid", "end_open", "end_pending", "touching"])
    def test_stream_equals_definition_handpicked(self, case):
        det = detector(onset_ms=50.0, release_ms=50.0, min_step_ms=150.0)
        det.threshold = 1.0
        env = np.zeros(150)
        if case == "mid":
            env[30:55] = 5.0
            env[90:120] = 5.0
        elif case == "end_open":
            env[120:] = 5.0
        elif case == "end_pending":
            env[100:145] = 5.0
        elif case == "touching":
            env[30:50] = 5.0
            env[60:80] = 5.0  # widened: [25,55) and [55,85) touch, no merge
        expected = segments_by_definition(det, env)
        segs, _ = stream_segments(det, env)
        assert segs == expected
        if case == "touching":
            assert len(segs) == 2

    def test_pulse_train_equivalence(self):
        env, _ = pulse_train(n_pulses=7)
        det = detector()
        det.recompute_threshold(env.max())
        expected = segments_by_definition(det, env)
        segs, _ = stream_segments(det, env)
        assert segs == expected == sorted(expected)

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 160),
        onset=st.integers(0, 8),
        release=st.integers(0, 8),
        min_step=st.integers(0, 25),
    )
    def test_stream_equals_definition_fuzzed(self, seed, n, onset, release, min_step):
        rng = np.random.default_rng(seed)
        # blocky envelopes exercise crossings, merges and the duration filter
        env = rng.choice([0.0, 0.5, 2.0, 3.0], size=n, p=[0.4, 0.2, 0.2, 0.2])
        det = detector(
            rate=1000.0,
            onset_ms=float(onset),
            release_ms=float(release),
            min_step_ms=float(min_step),
        )
        det.threshold = 1.0
        expected = segments_by_definition(det, env)
        segs, _ = stream_segments(det, env)
        assert segs == expected
        for (_, end), (start, _) in zip(expected, expected[1:]):
            assert end <= start

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 160))
    def test_skip_quiet_stands_in_for_a_feed_that_only_counts(self, seed, n):
        # every sample at or under the threshold goes through skip_quiet
        # first, and is fed only when skip_quiet declines it
        rng = np.random.default_rng(seed)
        env = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=n, p=[0.4, 0.1, 0.1, 0.2, 0.2])
        det = detector(rate=1000.0, onset_ms=3.0, release_ms=4.0, min_step_ms=10.0)
        det.threshold = 1.0
        events = []
        for v in env:
            if not (v <= det.threshold and det.skip_quiet()):
                events.extend(det.feed(v))
        events.extend(det.flush())
        assert segments_from_events(events) == segments_by_definition(det, env)

    def test_skip_quiet_declines_while_a_step_is_open_or_pending(self):
        det = detector(onset_ms=0.0, release_ms=50.0, min_step_ms=0.0)
        det.threshold = 1.0
        assert det.skip_quiet()
        events = list(det.feed(5.0))  # a step opens at sample 1
        assert not det.skip_quiet()
        events += det.feed(0.0)  # pending for the 5-sample release
        assert not det.skip_quiet()
        for _ in range(5):
            events += det.feed(0.0)
        assert det.skip_quiet()
        # declined calls count nothing: the step is [1, 7), and the sample
        # skipped after it is sample 8, so the next one is sample 9
        assert events == [StepEvent("started", 1), StepEvent("ended", 7)]
        assert det.feed(5.0) == (StepEvent("started", 9),)
        assert det.flush() == (StepEvent("ended", 10),)


class TestEventReassembly:
    def test_round_trip(self):
        events = [
            StepEvent("started", 3),
            StepEvent("ended", 20),
            StepEvent("started", 31),
            StepEvent("ended", 47),
        ]
        assert segments_from_events(events) == [(3, 20), (31, 47)]

    def test_unbalanced_events_rejected(self):
        with pytest.raises(ValueError):
            segments_from_events([StepEvent("ended", 5)])
        with pytest.raises(ValueError):
            segments_from_events([StepEvent("started", 5)])
        with pytest.raises(ValueError):
            segments_from_events([StepEvent("started", 5), StepEvent("started", 9)])
