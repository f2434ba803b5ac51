import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitmp import DataError
from gaitmp.detectors import NaiveDetectorConfig, StepSystemConfig
from gaitmp.signal import (
    CHANNELS,
    SOURCES,
    SensorSample,
    SignalSelector,
    StreamingEnvelope,
    envelope_window_samples,
    project,
)
from oracle import envelope_by_definition


def sample(gyro=(0.0, 0.0, 0.0), accel=(0.0, 0.0, 0.0), t=0.0):
    return SensorSample(t=t, accel=accel, gyro=gyro)


def stream_envelope(values, w=10):
    """Every envelope value a StreamingEnvelope of w samples emits, flush
    included; w = 10 is the default 100 ms window at 100 Hz."""
    se = StreamingEnvelope(window_samples=w)
    out = [e for e in map(se.push, values) if e is not None]
    out.extend(se.flush())
    return np.array(out)


class TestProject:
    def test_norms_on_3_4_0(self):
        s = sample(gyro=(3.0, -4.0, 0.0))
        assert project(s, SignalSelector("gyro", "l1")) == 7.0
        assert project(s, SignalSelector("gyro", "l2")) == 5.0
        assert project(s, SignalSelector("gyro", "linf")) == 4.0

    def test_single_axes_keep_sign(self):
        s = sample(gyro=(3.0, -4.0, 0.5))
        assert project(s, SignalSelector("gyro", "x")) == 3.0
        assert project(s, SignalSelector("gyro", "y")) == -4.0
        assert project(s, SignalSelector("gyro", "z")) == 0.5

    def test_source_picks_vector(self):
        s = sample(gyro=(1.0, 0.0, 0.0), accel=(0.0, 9.0, 0.0))
        assert project(s, SignalSelector("accel", "linf")) == 9.0

    def test_both_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SignalSelector("both", "linf")
        with pytest.raises(ValueError):
            SignalSelector.parse("both:l2")

    @given(st.tuples(*(st.floats(-100, 100) for _ in range(3))))
    def test_norm_ordering(self, vec):
        s = sample(gyro=vec)
        linf = project(s, SignalSelector("gyro", "linf"))
        l2 = project(s, SignalSelector("gyro", "l2"))
        l1 = project(s, SignalSelector("gyro", "l1"))
        assert linf <= l2 + 1e-12 <= l1 + 2e-12

    def test_parse(self):
        sel = SignalSelector.parse("accel:l2")
        assert sel == SignalSelector("accel", "l2")
        assert str(sel) == "accel:l2"
        with pytest.raises(ValueError):
            SignalSelector.parse("gyro")
        with pytest.raises(ValueError):
            SignalSelector.parse("gyro:l3")

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_selector_pickles(self, source, channel):
        # the resolved reducer is a closure, which pickle cannot send; the
        # selector pickles by its source and channel and resolves it afresh
        sel = SignalSelector(source, channel)
        back = pickle.loads(pickle.dumps(sel))
        assert back == sel
        s = sample(gyro=(3.0, -4.0, 0.5), accel=(-1.5, 9.0, 2.0))
        assert project(s, back) == project(s, sel)

    def test_configs_with_a_signal_pickle(self):
        sel = SignalSelector("accel", "l2")
        s = sample(accel=(3.0, -4.0, 0.0))
        for cfg in (StepSystemConfig(signal=sel), NaiveDetectorConfig(signal=sel)):
            back = pickle.loads(pickle.dumps(cfg))
            assert back == cfg
            assert project(s, back.signal) == 5.0

    def test_sample_rejects_nan(self):
        # every non-finite value, in t and in each of the six channels, as a
        # Python float and as a NumPy scalar
        for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan), np.float64(-np.inf)):
            for k in range(7):
                vals = [0.0] * 7
                vals[k] = bad
                with pytest.raises(DataError):
                    SensorSample(t=vals[0], accel=tuple(vals[1:4]), gyro=tuple(vals[4:7]))

    def test_sample_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SensorSample(t=0.0, accel=(0.0, 0.0), gyro=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SensorSample(t=0.0, accel=(0.0, 0.0, 0.0), gyro=(0.0, 0.0, 0.0, 0.0))

    def test_sample_fields_are_read_only(self):
        s = sample(gyro=(1.0, 2.0, 3.0), t=0.5)
        for name, value in (("t", 1.0), ("accel", (0.0, 0.0, 0.0)), ("gyro", (0.0, 0.0, 0.0))):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        with pytest.raises(AttributeError):
            s.extra = 1
        assert s == (0.5, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))


class TestEnvelope:
    def test_window_sizing(self):
        assert envelope_window_samples(100.0, 100.0) == 10
        assert envelope_window_samples(100.0, 128.0) == 13
        assert envelope_window_samples(1.0, 100.0) == 1
        with pytest.raises(ValueError):
            envelope_window_samples(0.0, 100.0)

    def test_constant_series(self):
        np.testing.assert_array_equal(stream_envelope(np.full(50, -3.0)), np.full(50, 3.0))

    def test_unit_impulse_spreads_over_window(self):
        x = np.zeros(40)
        x[20] = 1.0
        # w=10 centered: impulse at 20 covers outputs 15..24
        for env in (stream_envelope(x), envelope_by_definition(x, 10)):
            assert (env[15:25] == 1.0).all()
            assert (env[:15] == 0.0).all()
            assert (env[25:] == 0.0).all()

    def test_dominates_rectified_signal(self):
        x = np.random.default_rng(0).normal(size=200)
        assert (stream_envelope(x) >= np.abs(x) - 1e-12).all()

    def test_monotone_in_window_width(self):
        x = np.random.default_rng(1).normal(size=200)
        narrow = stream_envelope(x, envelope_window_samples(50.0, 100.0))
        wide = stream_envelope(x, envelope_window_samples(150.0, 100.0))
        assert (wide >= narrow - 1e-12).all()

    def test_rectification(self):
        x = np.random.default_rng(2).normal(size=120)
        np.testing.assert_array_equal(stream_envelope(x), stream_envelope(-x))

    def test_keeps_length_and_rate(self):
        # 100 ms at 64 Hz is a 6-sample window; one value per reading
        w = envelope_window_samples(100.0, 64.0)
        assert w == 6
        env = stream_envelope(np.arange(33.0), w)
        assert env.size == 33
        np.testing.assert_array_equal(env, envelope_by_definition(np.arange(33.0), w))


class TestStreamingEnvelope:
    @pytest.mark.parametrize("w", [1, 2, 3, 9, 10, 25])
    def test_matches_definition(self, w):
        x = np.random.default_rng(w).normal(size=150)
        np.testing.assert_array_equal(stream_envelope(x, w), envelope_by_definition(x, w))

    def test_emission_lag_is_half_window(self):
        se = StreamingEnvelope(window_samples=10)
        emitted = [se.push(1.0) for _ in range(20)]
        # nothing before the 6th sample (right span w//2 = 5), then 1:1
        assert emitted[:5] == [None] * 5
        assert emitted[5:] == [1.0] * 15
        assert len(se.flush()) == 5

    def test_short_stream_all_from_flush(self):
        se = StreamingEnvelope(window_samples=10)
        assert se.push(2.0) is None
        assert se.push(-3.0) is None
        assert se.flush() == [3.0, 3.0]

    def test_empty_flush(self):
        assert StreamingEnvelope(window_samples=4).flush() == []

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            StreamingEnvelope(window_samples=4).push(float("nan"))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 200),
        st.integers(1, 30),
        st.sampled_from(["normal", "quantised", "increasing", "decreasing"]),
    )
    @example(seed=0, n=200, w=25, shape="quantised")
    @example(seed=1, n=200, w=10, shape="increasing")
    @example(seed=2, n=200, w=9, shape="decreasing")
    @example(seed=3, n=7, w=30, shape="normal")
    def test_matches_definition_property(self, seed, n, w, shape):
        # ties and monotone runs are where a monotonic-deque maximum can slip,
        # and w > n leaves every value to flush()
        x = np.random.default_rng(seed).normal(size=n)
        if shape == "quantised":
            x = np.round(x, 1)
        elif shape in ("increasing", "decreasing"):
            x = np.cumsum(np.abs(x) + 0.01)
            if shape == "decreasing":
                x = x[::-1]
        np.testing.assert_array_equal(stream_envelope(x, w), envelope_by_definition(x, w))
