import csv
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitmp.dataset import LabeledSegment, SynthConfig, generate
from gaitmp.detectors import (
    AlarmEvent,
    NaiveDetector,
    NaiveDetectorConfig,
    StepGatedDetector,
    StepSystemConfig,
    TraceRecord,
    alarms_from_trace,
    replay,
)
from gaitmp.errors import DataError
from gaitmp.evaluation import (
    ConfusionCounts,
    EvaluationReport,
    RecordingResult,
    RocPoint,
    _sweep_counts,
    earliness,
    evaluate_recordings,
    f1,
    match_alarms,
    optimal_threshold,
    real_time_factor,
    report_to_dict,
    roc_curve,
    threshold_grid,
    write_earliness_csv,
    write_f1_csv,
    write_roc_csv,
)


def alarm(idx):
    return AlarmEvent(idx, idx / 100.0, 0.9, 25)


def seg(start, end, label):
    return LabeledSegment(start, end, label)


TRUTH = [
    seg(0, 100, "ok"),
    seg(100, 200, "ok"),
    seg(200, 300, "ab"),
    seg(300, 400, "ok"),
    seg(400, 500, "ab"),
]


class TestConfusionCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConfusionCounts(1, -1, 0, 0)

    def test_addition(self):
        total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(10, 20, 30, 40)
        assert total == ConfusionCounts(11, 22, 33, 44)


class TestMatchAlarms:
    def test_perfect_detector(self):
        c = match_alarms([alarm(250), alarm(450)], TRUTH)
        assert c == ConfusionCounts(tp=2, fp=0, fn=0, tn=3)

    def test_no_alarms(self):
        c = match_alarms([], TRUTH)
        assert c.tp == 0 and c.fp == 0
        assert c == ConfusionCounts(0, 0, 2, 3)

    def test_alarm_in_normal_segment(self):
        c = match_alarms([alarm(50), alarm(250), alarm(450)], TRUTH)
        assert c == ConfusionCounts(tp=2, fp=1, fn=0, tn=2)

    def test_stray_alarms_each_count(self):
        c = match_alarms([alarm(600), alarm(700)], TRUTH)
        assert c == ConfusionCounts(tp=0, fp=2, fn=2, tn=3)

    def test_multiple_alarms_one_segment(self):
        c = match_alarms([alarm(210), alarm(250), alarm(290)], TRUTH)
        assert c.tp == 1 and c.fp == 0

    @given(
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 20), st.booleans()), max_size=8),
        st.lists(st.integers(0, 700), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_conservation(self, seg_plan, alarm_idx):
        segments, cursor = [], 0
        for length, gap, anomalous in seg_plan:
            cursor += gap
            segments.append(seg(cursor, cursor + length, "ab" if anomalous else "ok"))
            cursor += length
        alarms = [alarm(i) for i in alarm_idx]
        c = match_alarms(alarms, segments)
        n_ab = sum(1 for s in segments if s.is_anomalous)
        n_ok = len(segments) - n_ab
        strays = sum(
            1 for i in alarm_idx if not any(s.start <= i < s.end for s in segments)
        )
        assert c.tp + c.fn == n_ab
        assert c.fp + c.tn == n_ok + strays
        hit = [any(s.start <= i < s.end for i in alarm_idx) for s in segments]
        assert c.tp == sum(h for s, h in zip(segments, hit) if s.is_anomalous)
        assert c.fp == sum(h for s, h in zip(segments, hit) if not s.is_anomalous) + strays


GRID = threshold_grid()
# scores exactly on thresholds, where "above" and "at" part
ON_GRID = st.sampled_from([0.0, 0.35, 0.5, 1.0, *GRID.tolist()])


@st.composite
def traces(draw):
    """One detector's trace: sample_index never falls, several rows may
    share one (flush rows do), and a step's rows are contiguous; naive rows
    have no step ordinal."""
    naive = draw(st.booleans())
    index, ordinal, rows = draw(st.integers(0, 40)), draw(st.integers(0, 3)), []
    plan = st.tuples(st.integers(0, 25), st.integers(0, 3), ON_GRID | st.floats(0.0, 1.0))
    for hop, step_gap, score in draw(st.lists(plan, max_size=40)):
        index += hop
        ordinal += step_gap // 2
        rows.append(TraceRecord(index, index, None if naive else ordinal, 25, score))
    return rows


@st.composite
def truths(draw):
    """Segments with gaps (zero gaps make adjacent segments) before, between
    and after them, all anomalous or all normal as often as mixed."""
    plan = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 60)), max_size=8)
    kind = draw(st.sampled_from(["mixed", "ab", "ok"]))
    segments, cursor = [], 0
    for gap, length in draw(plan):
        cursor += gap
        label = draw(st.sampled_from(["ab", "ok"])) if kind == "mixed" else kind
        segments.append(seg(cursor, cursor + length, label))
        cursor += length
    return segments


def row(index, ordinal, score):
    return TraceRecord(index, index, ordinal, 25, score)


# rows before, in, between and after segments; a step with repeated and
# falling scores, on grid values, ending in rows that share one sample_index
STEPS = [
    row(3, 1, 0.2), row(12, 1, 0.35), row(14, 1, 0.35), row(16, 1, 0.1), row(19, 1, 0.5),
    row(20, 2, 0.5), row(25, 2, 1.0), row(33, 3, 0.0), row(45, 4, 0.36),
    row(60, 5, 0.9), row(60, 5, 0.95), row(60, 5, 0.9),
]
ADJACENT = [seg(10, 20, "ab"), seg(20, 30, "ok"), seg(40, 50, "ab")]


class TestSweepCounts:
    """Each row of the one-pass sweep is the per-threshold definition:
    re-threshold the trace, then match the alarms."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(trace=traces(), truth=truths())
    @example(trace=[], truth=ADJACENT)
    @example(trace=[], truth=[seg(0, 10, "ab"), seg(10, 20, "ab")])
    @example(trace=STEPS, truth=ADJACENT)
    @example(trace=STEPS, truth=[seg(10, 20, "ab"), seg(20, 30, "ab")])
    @example(trace=[r._replace(step_ordinal=None) for r in STEPS], truth=ADJACENT)
    @example(trace=[r._replace(step_ordinal=None) for r in STEPS], truth=[])
    def test_every_threshold_matches_the_definition(self, trace, truth):
        got = _sweep_counts(trace, truth, GRID)
        assert got.shape == (GRID.size, 4)
        want = [match_alarms(alarms_from_trace(trace, float(th), 100.0), truth) for th in GRID]
        assert [ConfusionCounts(*map(int, r)) for r in got] == want


class TestF1:
    def test_perfect(self):
        assert f1(ConfusionCounts(5, 0, 0, 0)) == 1.0

    def test_no_true_positives(self):
        assert f1(ConfusionCounts(0, 3, 2, 0)) == 0.0

    def test_textbook_value(self):
        assert f1(ConfusionCounts(8, 2, 4, 0)) == pytest.approx(8 / 11, abs=1e-12)

    def test_all_zero(self):
        assert f1(ConfusionCounts(0, 0, 0, 5)) == 0.0

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_perfection(self, tp, fp, fn, tn):
        value = f1(ConfusionCounts(tp, fp, fn, tn))
        assert 0.0 <= value <= 1.0
        assert (value == 1.0) == (tp > 0 and fp == 0 and fn == 0)


def synthetic_sweep(scores, truth, grid=None):
    """Alarm sets emulating a detector that scores whole segments."""
    if grid is None:
        grid = threshold_grid()
    sets = []
    for th in grid:
        alarms = [
            alarm((s.start + s.end) // 2)
            for s, sc in zip(truth, scores)
            if sc > th
        ]
        sets.append((float(th), alarms))
    return sets


def sweep_roc(sets, truth):
    return roc_curve([th for th, _ in sets], [match_alarms(a, truth) for _, a in sets])


class TestRocCurve:
    def test_thresholds_must_decrease(self):
        with pytest.raises(ValueError):
            sweep_roc([(0.2, []), (0.8, [])], TRUTH)

    def test_one_count_per_threshold(self):
        with pytest.raises(ValueError, match="per threshold"):
            roc_curve([1.0, 0.5, 0.0], [match_alarms([], TRUTH)] * 2)

    def test_requires_anomalous_segment(self):
        with pytest.raises(ValueError):
            sweep_roc(synthetic_sweep([0.1], [seg(0, 10, "ok")], grid=[1.0, 0.0]),
                      [seg(0, 10, "ok")])

    def test_perfect_separation_auc_one(self):
        scores = [0.1, 0.2, 0.9, 0.15, 0.8]
        points, auc = sweep_roc(synthetic_sweep(scores, TRUTH), TRUTH)
        assert auc == pytest.approx(1.0)

    def test_constant_scores_chance_auc(self):
        # every segment fires together: the curve only ever visits the two
        # corners, and connecting them gives the chance diagonal
        scores = [0.5] * 5
        points, auc = sweep_roc(synthetic_sweep(scores, TRUTH), TRUTH)
        assert {(round(p.fpr, 9), round(p.tpr, 9)) for p in points} <= {(0.0, 0.0), (1.0, 1.0)}
        assert auc == pytest.approx(0.5)

    def test_monotone_rates_as_threshold_falls(self):
        rng = np.random.default_rng(1)
        truth = [seg(k * 100, k * 100 + 100, "ab" if k % 3 == 0 else "ok") for k in range(9)]
        scores = rng.random(9).tolist()
        points, _ = sweep_roc(synthetic_sweep(scores, truth), truth)
        tprs = [p.tpr for p in points]
        fprs = [p.fpr for p in points]
        assert all(b >= a for a, b in zip(tprs, tprs[1:]))
        assert all(b >= a for a, b in zip(fprs, fprs[1:]))

    def test_trapezoid_against_manual_enumeration(self):
        rng = np.random.default_rng(7)
        truth = [
            seg(k * 50, k * 50 + 50, "ab" if k in (2, 5, 9, 13, 17) else "ok")
            for k in range(20)
        ]
        scores = rng.random(20).tolist()
        # sweep at every distinct score boundary so no staircase corner is cut
        grid = sorted({0.0, 1.0, *scores}, reverse=True)
        points, auc = sweep_roc(synthetic_sweep(scores, truth, grid), truth)
        # manual sweep over every distinct score boundary
        n_ab = 5
        n_ok = 15
        manual = {(0.0, 0.0), (1.0, 1.0)}
        for th in sorted(scores) + [0.0, 1.0]:
            tp = sum(1 for s, sc in zip(truth, scores) if s.is_anomalous and sc > th)
            fp = sum(1 for s, sc in zip(truth, scores) if not s.is_anomalous and sc > th)
            manual.add((fp / n_ok, tp / n_ab))
        pts = sorted(manual)
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        expected = np.trapezoid(y, x) if hasattr(np, "trapezoid") else np.trapz(y, x)
        assert auc == pytest.approx(float(expected), abs=1e-12)


class TestOptimalThreshold:
    def test_picks_max_youden(self):
        points = [
            RocPoint(0.0, 0.0, 1.0),
            RocPoint(0.1, 0.9, 0.6),
            RocPoint(0.5, 0.95, 0.3),
            RocPoint(1.0, 1.0, 0.0),
        ]
        assert optimal_threshold(points) == 0.6

    def test_tie_prefers_higher_threshold(self):
        points = [RocPoint(0.0, 0.5, 0.8), RocPoint(0.2, 0.7, 0.4)]
        assert optimal_threshold(points) == 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold([])


class TestEarliness:
    def test_alarm_at_onset(self):
        truth = [seg(200, 300, "ab"), seg(400, 500, "ab")]
        assert earliness([alarm(200), alarm(400)], truth, 100.0) == 0.0

    def test_half_second_delay(self):
        truth = [seg(1000, 1200, "ab")]
        assert earliness([alarm(1050)], truth, 100.0) == pytest.approx(0.5)

    def test_no_true_positives_is_none(self):
        assert earliness([alarm(10)], [seg(200, 300, "ab")], 100.0) is None
        assert earliness([], [seg(200, 300, "ab")], 100.0) is None

    def test_only_first_alarm_counts(self):
        truth = [seg(100, 300, "ab")]
        assert earliness([alarm(150), alarm(250)], truth, 100.0) == pytest.approx(0.5)

    def test_non_negative_on_mixed_truth(self):
        truth = TRUTH
        value = earliness([alarm(250), alarm(460)], truth, 100.0)
        assert value is not None and value >= 0.0


def fixture_pairs(seeds=(0, 1, 2)):
    pairs = []
    for s in seeds:
        cfg = SynthConfig(
            n_normal_steps=10, n_anomalous_steps=2, anomaly_position=7, rng_seed=s
        )
        pairs.append(generate(cfg))
    return pairs


def step_detector():
    return StepGatedDetector(StepSystemConfig())


class TestHarness:
    def test_perfect_fixture_aggregate(self):
        report = evaluate_recordings(fixture_pairs(), step_detector, measure_rtf=False)
        assert report.aggregate_f1 == 1.0
        assert report.auc == pytest.approx(1.0)
        assert all(r.f1 == 1.0 for r in report.per_recording)
        assert all(
            r.mean_earliness_s is not None and 0.0 <= r.mean_earliness_s < 1.0
            for r in report.per_recording
        )

    def test_report_is_order_invariant(self):
        pairs = fixture_pairs()
        a = evaluate_recordings(pairs, step_detector, measure_rtf=False)
        b = evaluate_recordings(list(reversed(pairs)), step_detector, measure_rtf=False)
        assert json.dumps(report_to_dict(a), sort_keys=True) == json.dumps(
            report_to_dict(b), sort_keys=True
        )

    def test_roc_sorted_by_threshold(self):
        report = evaluate_recordings(fixture_pairs((0,)), step_detector, measure_rtf=False)
        ths = [p.threshold for p in report.roc]
        assert ths == sorted(ths, reverse=True)
        assert all(0.0 <= p.fpr <= 1.0 and 0.0 <= p.tpr <= 1.0 for p in report.roc)

    def test_rtf_measured_when_asked(self):
        report = evaluate_recordings(fixture_pairs((0,)), step_detector)
        assert report.real_time_factor is not None
        assert 0.0 < report.real_time_factor < 10.0

    def test_rtf_is_the_median_of_the_scoring_replays(self, monkeypatch):
        made, ratios = [], []

        def make_detector():
            made.append(1)
            return step_detector()

        def timed_replay(detector, recording):
            res = replay(detector, recording)
            ratios.append(res.wall_s / recording.duration_s)
            return res

        monkeypatch.setattr("gaitmp.evaluation.replay", timed_replay)
        report = evaluate_recordings(fixture_pairs(), make_detector)
        assert len(made) == len(ratios) == 3
        assert report.real_time_factor == sorted(ratios)[1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate_recordings([], step_detector)

    def test_overlapping_truth_rejected_before_any_replay(self):
        made = []

        def make_detector():
            made.append(1)
            return step_detector()

        pairs = fixture_pairs((0, 1, 2, 3))
        rec, truth = pairs[-1]
        pairs[-1] = (rec, truth + [seg(truth[-1].start, truth[-1].end, "ok")])
        with pytest.raises(DataError, match="overlap"):
            evaluate_recordings(pairs, make_detector, measure_rtf=False)
        assert made == []


def naive_detector():
    return NaiveDetector(NaiveDetectorConfig(), 100.0)


def report_by_definition(pairs, make_detector):
    """evaluate_recordings' report, counted threshold by threshold with
    alarms_from_trace and match_alarms."""
    entries = []
    for rec, truth in pairs:
        trace = replay(make_detector(), rec).trace
        fs = rec.sample_rate_hz
        counts = [match_alarms(alarms_from_trace(trace, float(th), fs), truth) for th in GRID]
        entries.append((rec.meta.recording_id, truth, fs, trace, counts))
    entries.sort(key=lambda e: e[0])
    pooled = [
        ConfusionCounts(*map(sum, zip(*(astuple(e[4][j]) for e in entries))))
        for j in range(GRID.size)
    ]
    points, auc = roc_curve(GRID, pooled)
    theta = optimal_threshold(points)
    j = [p.threshold for p in points].index(theta)
    per_recording = tuple(
        RecordingResult(
            rid,
            counts[j],
            f1(counts[j]),
            earliness(alarms_from_trace(trace, theta, fs), truth, fs),
        )
        for rid, truth, fs, trace, counts in entries
    )
    return EvaluationReport(
        per_recording=per_recording,
        roc=tuple(points),
        auc=auc,
        optimal_threshold=theta,
        aggregate_f1=f1(pooled[j]),
        f1_by_threshold=tuple((float(th), f1(c)) for th, c in zip(GRID, pooled)),
        real_time_factor=None,
    )


class TestHarnessMatchesTheDefinition:
    @pytest.mark.parametrize("make_detector", [step_detector, naive_detector])
    def test_report_equals_the_per_threshold_report(self, make_detector):
        # the 2 s recording is scored by neither detector: its trace is empty
        short = generate(
            SynthConfig(n_normal_steps=1, n_anomalous_steps=0, lead_in_s=0.5, tail_s=0.5, rng_seed=5)
        )
        pairs = fixture_pairs() + [short]
        assert replay(make_detector(), short[0]).trace == []
        report = evaluate_recordings(pairs, make_detector, measure_rtf=False)
        assert report == report_by_definition(pairs, make_detector)


class TestRealTimeFactor:
    def test_positive_and_finite(self):
        rec, _ = generate(SynthConfig(n_normal_steps=3, n_anomalous_steps=0, rng_seed=0))
        rtf = real_time_factor(step_detector, rec, runs=2)
        assert 0.0 < rtf < 100.0

    @pytest.mark.parametrize("runs", [0, -1])
    def test_runs_below_one_rejected_before_any_replay(self, runs):
        rec, _ = generate(SynthConfig(n_normal_steps=3, n_anomalous_steps=0, rng_seed=0))
        made = []

        def make_detector():
            made.append(1)
            return step_detector()

        with pytest.raises(ValueError, match="runs"):
            real_time_factor(make_detector, rec, runs=runs)
        assert made == []


class TestWriters:
    def test_files_round_trip(self, tmp_path):
        report = evaluate_recordings(fixture_pairs((0,)), step_detector, measure_rtf=False)
        write_roc_csv(report.roc, tmp_path / "roc.csv")
        write_f1_csv(report.f1_by_threshold, tmp_path / "f1_by_threshold.csv")
        write_earliness_csv(report.per_recording, tmp_path / "earliness.csv")

        with open(tmp_path / "roc.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.roc)
        assert set(rows[0]) == {"fpr", "tpr", "threshold"}
        with open(tmp_path / "earliness.csv") as fh:
            erows = list(csv.DictReader(fh))
        assert [r["recording_id"] for r in erows] == [
            r.recording_id for r in report.per_recording
        ]

    def test_earliness_none_is_empty_cell(self, tmp_path):
        from gaitmp.evaluation import RecordingResult

        rows = [RecordingResult("r1", ConfusionCounts(0, 0, 1, 1), 0.0, None)]
        write_earliness_csv(rows, tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text().splitlines()[1] == "r1,"
