import math

import numpy as np
import pytest

from gaitmp.dataset import ANOMALY_KINDS, SynthConfig, generate
from gaitmp.detectors import (
    NaiveDetector,
    NaiveDetectorConfig,
    StepGatedDetector,
    StepSystemConfig,
    alarms_from_trace,
    dump_alarms,
    dump_trace,
    load_alarms,
    load_trace,
    _Chunk,
    _History,
    replay,
)
from gaitmp.mp import distance_profile
from gaitmp.signal import SignalSelector


def make_recording(kind="shape-replaced", seed=0):
    cfg = SynthConfig(
        n_normal_steps=10,
        n_anomalous_steps=2,
        anomaly_position=7,
        rng_seed=seed,
        anomaly_kind=kind,
    )
    return generate(cfg)


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
            NaiveDetectorConfig(history_len=150)
        with pytest.raises(ValueError):
            NaiveDetectorConfig(overlap_fraction=1.0)
        with pytest.raises(ValueError):
            NaiveDetectorConfig(discord_threshold=1.5)


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


class TestStepSystemConfig:
    def test_default_sample_counts(self):
        cfg = StepSystemConfig()
        assert cfg.min_query_len == 25
        assert cfg.history_len == 1000
        assert cfg.bootstrap_horizon == 300

    def test_effective_guard_fallback(self):
        assert StepSystemConfig(admission_guard=None, discord_threshold=0.7).effective_guard == 0.7
        assert StepSystemConfig(admission_guard=0.2).effective_guard == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSystemConfig(sample_rate_hz=0.0)
        with pytest.raises(ValueError):
            StepSystemConfig(discord_threshold=-0.1)
        with pytest.raises(ValueError):
            StepSystemConfig(admission_guard=1.2)
        with pytest.raises(ValueError):
            StepSystemConfig(min_query_len_ms=10.0)
        with pytest.raises(ValueError):
            StepSystemConfig(bootstrap_horizon_s=0.0)


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
        assert det.history_samples() <= det.cfg.history_len


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
        # with the guard disabled and alarms off, the first anomaly enters
        # History and the second one matches it instead of standing out
        rec, truth = make_recording()
        det = StepGatedDetector(
            StepSystemConfig(discord_threshold=1.0, admission_guard=None)
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

    def test_prime_history_rejects_short_reference(self):
        det = StepGatedDetector(StepSystemConfig())
        with pytest.raises(ValueError):
            det.prime_history(np.zeros(10))

    def test_prime_history_rejects_after_streaming(self):
        rec, _ = make_recording()
        det = StepGatedDetector(StepSystemConfig())
        det.push(rec.samples[0])
        with pytest.raises(ValueError):
            det.prime_history(np.zeros(400))

    def test_primed_reference_replaces_provisional_bootstrap(self):
        rec, truth = make_recording()
        ref = rec.project(SignalSelector()).values[:400]
        det = StepGatedDetector(StepSystemConfig())
        det.prime_history(ref)
        res = replay(det, rec)
        assert det.admissions[0] == {
            "seq": 1,
            "sample_index": -1,
            "length": 400,
            "provisional": False,
        }
        assert any(r.step_ordinal == 0 for r in det.trace)
        assert len(res.alarms) == 2

    def test_flush_settles_open_step(self):
        rec, _ = make_recording()
        det = StepGatedDetector(StepSystemConfig())
        # stop mid-recording, likely inside a step
        for s in rec.samples[:900]:
            det.push(s)
        det.flush()
        kinds = [e["kind"] for e in det.step_events]
        assert kinds.count("started") == kinds.count("ended")


class TestSerialization:
    def test_alarm_round_trip(self, tmp_path, tremor_run):
        _, _, _, res = tremor_run
        p = tmp_path / "alarms.jsonl"
        dump_alarms(res.alarms, p)
        assert load_alarms(p) == list(res.alarms)

    def test_trace_round_trip(self, tmp_path, tremor_run):
        _, _, _, res = tremor_run
        p = tmp_path / "trace.jsonl"
        dump_trace(res.trace, p)
        assert load_trace(p) == list(res.trace)

    def test_empty_round_trip(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        dump_alarms([], p)
        assert load_alarms(p) == []


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

    def best_distance(self, query):
        best = math.inf
        for chunk in self.chunks:
            if chunk.values.size >= query.size:
                best = min(best, float(distance_profile(query, chunk.values).min()))
        return best


def replay_both(rec, cfg, reference=None):
    fast = StepGatedDetector(cfg)
    slow = StepGatedDetector(cfg)
    slow._history = PerChunkHistory()
    if reference is not None:
        fast.prime_history(reference)
        slow.prime_history(reference)
    return replay(fast, rec), replay(slow, rec)


def assert_same_run(fast, slow):
    key = lambda a: (a.sample_index, a.query_len)  # noqa: E731
    assert [key(a) for a in fast.alarms] == [key(a) for a in slow.alarms]
    assert fast.detector.admissions == slow.detector.admissions
    assert fast.detector.step_events == slow.detector.step_events
    row = lambda r: (r.sample_index, r.query_index, r.step_ordinal, r.query_len)  # noqa: E731
    assert [row(r) for r in fast.trace] == [row(r) for r in slow.trace]
    scores = np.array([r.score for r in fast.trace])
    expected = np.array([r.score for r in slow.trace])
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)
    assert fast.detector.history_samples() == slow.detector.history_samples()
    assert [c.values.size for c in fast.detector._history.chunks] == [
        c.values.size for c in slow.detector._history.chunks
    ]


class TestContiguousHistoryMatchesPerChunkScoring:
    @pytest.mark.parametrize("kind", ANOMALY_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay(self, kind, seed):
        rec, _ = make_recording(kind, seed)
        fast, slow = replay_both(rec, StepSystemConfig())
        assert fast.trace and fast.detector.admissions
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
        assert history.buffer.size == det.history_samples()
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

    def test_query_longer_than_every_chunk_is_unscored(self):
        history = _History()
        history.admit(_Chunk(np.sin(np.arange(40.0)), 1.0), cap=1000)
        history.admit(_Chunk(np.cos(np.arange(30.0)), 1.0), cap=1000)
        assert history.best_distance(np.sin(np.arange(40.0))) < 1e-9
        assert history.best_distance(np.sin(np.arange(41.0))) == math.inf
