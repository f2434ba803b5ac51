"""End-to-end acceptance checks, one per shipped guarantee.

Each test finishes by printing a single `criterion N: PASS` line with the
measured figures; run with `pytest tests/test_acceptance.py -v -s` to see
them all. Module-scoped fixtures share the expensive detector sweeps.
"""

import math
import time

import numpy as np
import pytest

from gaitmp.dataset import ANOMALY_KINDS, LabeledSegment, Recording, SynthConfig, generate
from gaitmp.detectors import BOOTSTRAP_HORIZON_S, StepGatedDetector, StepSystemConfig, replay
from gaitmp.evaluation import (
    ConfusionCounts,
    evaluate_recordings,
    f1,
    match_alarms,
    roc_curve,
    threshold_grid,
)
from gaitmp.mp import brute_force_mp, matrix_profile_self
from gaitmp.signal import SignalSelector, envelope_window_samples
from gaitmp.steps import INITIAL_THRESHOLD, StepDetector, segment_series
from oracle import envelope_by_definition, segments_by_definition


def step_detector():
    return StepGatedDetector(StepSystemConfig())


@pytest.fixture(scope="module")
def fig2_run():
    """7 normal steps, then 2 anomalous, then 3 normal."""
    rec, truth = generate(
        SynthConfig(n_normal_steps=10, n_anomalous_steps=2, anomaly_position=7, rng_seed=0)
    )
    det = step_detector()
    res = replay(det, rec)
    return rec, truth, det, res


@pytest.fixture(scope="module")
def desk_sweep():
    """50 seeded recordings, 10 to 15 steps each, all three anomaly kinds."""
    t0 = time.perf_counter()
    pairs = []
    for seed in range(50):
        cfg = SynthConfig(
            n_normal_steps=9 + (seed * 3) % 5,
            n_anomalous_steps=1 + seed % 2,
            rng_seed=seed,
            anomaly_kind=ANOMALY_KINDS[seed % 3],
        )
        pairs.append(generate(cfg))
    report = evaluate_recordings(pairs, step_detector, measure_rtf=False)
    return report, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    instances = []
    for _ in range(200):
        n = int(rng.integers(64, 513))
        m = min(int(rng.integers(4, 33)), n // 2)
        instances.append((rng.normal(size=n), m))
    # planted near-duplicates: a window copied elsewhere with a tiny
    # perturbation, where sqrt(2m(1-rho)) cancels
    for _ in range(20):
        n = int(rng.integers(64, 513))
        m = min(int(rng.integers(4, 33)), n // 2)
        x = rng.normal(size=n)
        i = int(rng.integers(0, n - 2 * m + 1))
        j = int(rng.integers(i + m, n - m + 1))
        x[j : j + m] = x[i : i + m] + 10.0 ** rng.uniform(-9, -5) * rng.normal(size=m)
        instances.append((x, m))
    worst = 0.0
    # the relative measure hides errors on near-duplicates, so distances
    # below 1e-3 are also held to an absolute bound
    worst_near = 0.0
    n_near = 0
    for x, m in instances:
        fast = matrix_profile_self(x, m)
        ref = brute_force_mp(x, m)
        finite = np.isfinite(ref.profile)
        assert np.array_equal(finite, np.isfinite(fast.profile))
        err = np.abs(fast.profile[finite] - ref.profile[finite])
        rel = err / np.maximum(np.abs(ref.profile[finite]), 1.0)
        if rel.size:
            worst = max(worst, float(rel.max()))
        near = ref.profile[finite] < 1e-3
        n_near += int(near.sum())
        if near.any():
            worst_near = max(worst_near, float(err[near].max()))
    elapsed = time.perf_counter() - t0
    assert n_near > 0
    assert worst <= 1e-9
    assert worst_near <= 1e-9
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS {len(instances)} instances, worst rel dev {worst:.2e}, "
        f"worst abs dev {worst_near:.2e} on {n_near} distances below 1e-3, {elapsed:.1f}s"
    )


def test_criterion_2_profile_definition():
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    m = 16
    res = matrix_profile_self(x, m)
    assert res.profile.shape == (300 - m + 1,)
    finite = np.isfinite(res.profile)
    assert np.all(res.profile[finite] >= 0.0)
    assert np.all(res.profile[finite] <= 2.0 * math.sqrt(m) + 1e-12)
    excl = res.exclusion
    pos = np.arange(res.profile.size)
    matched = res.indices >= 0
    assert np.all(np.abs(res.indices[matched] - pos[matched]) >= excl)
    scaled = matrix_profile_self(3.7 * x - 5.0, m)
    dev = float(np.max(np.abs(scaled.profile[finite] - res.profile[finite])))
    assert dev <= 1e-7
    print(
        f"criterion 2: PASS length {res.profile.size}, range ok, "
        f"exclusion {excl}, affine dev {dev:.2e}"
    )


def test_criterion_3_alarm_placement_at_default_threshold(fig2_run):
    _, truth, det, res = fig2_run
    spans = [(s.start, s.end) for s in truth if s.is_anomalous]
    assert len(res.alarms) == 2
    assert all(any(a <= al.sample_index < b for a, b in spans) for al in res.alarms)
    counts = match_alarms(res.alarms, truth)
    assert f1(counts) == 1.0
    print(
        f"criterion 3: PASS 2 alarms inside the anomalous span, "
        f"F1 {f1(counts):.1f} at threshold {det.cfg.discord_threshold}"
    )


def test_criterion_4_detection_quality_at_desk_scale(desk_sweep):
    report, elapsed = desk_sweep
    assert report.auc >= 0.95
    assert report.aggregate_f1 >= 0.90
    assert elapsed < 300.0
    print(
        f"criterion 4: PASS 50 recordings, AUC {report.auc:.4f}, "
        f"F1 {report.aggregate_f1:.4f} at threshold {report.optimal_threshold:.2f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_earliness_below_step_period(desk_sweep):
    report, _ = desk_sweep
    period = SynthConfig().step_period_s
    delays = [r.mean_earliness_s for r in report.per_recording]
    assert all(d is not None for d in delays)
    mean_delay = float(np.mean(delays))
    assert mean_delay < period
    assert max(delays) < period
    print(
        f"criterion 5: PASS mean earliness {mean_delay:.3f}s "
        f"(max {max(delays):.3f}s) < step period {period:.1f}s"
    )


def test_criterion_6_cold_start_stays_silent(fig2_run):
    _, truth, det, res = fig2_run
    assert INITIAL_THRESHOLD >= 1e9
    first = det.admissions[0]
    assert first["provisional"] is True
    assert first["seq"] == 1
    # the provisional chunk spans the lead-in plus the first genuine step
    assert first["length"] > truth[0].end
    assert all(e["sample_index"] >= first["sample_index"] for e in det.step_events)
    assert all(r.sample_index >= first["sample_index"] for r in det.trace)
    assert all(a.sample_index >= first["sample_index"] for a in res.alarms)
    print(
        "criterion 6: PASS no step events, scores, or alarms before the "
        f"first admission at sample {first['sample_index']}"
    )


def test_criterion_7_batch_stream_segmentation_equality():
    checked = 0
    for seed in range(5):
        for kind in ANOMALY_KINDS:
            rec, _ = generate(
                SynthConfig(
                    n_normal_steps=8,
                    n_anomalous_steps=2,
                    rng_seed=seed,
                    anomaly_kind=kind,
                )
            )
            x = rec.project(SignalSelector()).values
            w = envelope_window_samples(100.0, rec.sample_rate_hz)
            env = envelope_by_definition(x, w)
            reference = StepDetector(rec.sample_rate_hz)
            reference.recompute_threshold(env.max())
            # the routine `gaitmp segment` and prime_history call: the
            # detector's streaming envelope and segmenter over the series
            stream = StepDetector(rec.sample_rate_hz)
            steps, streamed = segment_series(x, w, stream)
            assert np.array_equal(streamed, env)
            assert stream.threshold == reference.threshold
            assert steps == segments_by_definition(reference, env)
            checked += 1
    print(f"criterion 7: PASS streaming equals the definition on {checked} fixtures")


def test_criterion_8_faster_than_realtime():
    from gaitmp.evaluation import real_time_factor

    rec, _ = generate(SynthConfig(n_normal_steps=58, n_anomalous_steps=2, rng_seed=8))
    duration = rec.n / rec.sample_rate_hz
    assert duration >= 60.0
    rtf = real_time_factor(step_detector, rec, runs=5)
    assert rtf < 1.0
    print(f"criterion 8: PASS RTF {rtf:.4f} on a {duration:.0f}s recording, median of 5")


def test_criterion_9_metrics_self_test():
    assert f1(ConfusionCounts(5, 0, 0, 0)) == 1.0

    truth = [
        LabeledSegment(k * 100, k * 100 + 100, "ab" if k in (2, 4) else "ok")
        for k in range(5)
    ]

    def sweep(scores, grid):
        from gaitmp.detectors import AlarmEvent

        sets = []
        for th in grid:
            sets.append(
                (
                    float(th),
                    [
                        AlarmEvent((s.start + s.end) // 2, 0.0, sc, 25)
                        for s, sc in zip(truth, scores)
                        if sc > th
                    ],
                )
            )
        return sets

    def roc(sets):
        return roc_curve([th for th, _ in sets], [match_alarms(a, truth) for _, a in sets])

    _, chance_auc = roc(sweep([0.5] * 5, threshold_grid()))
    assert chance_auc == pytest.approx(0.5)

    rng = np.random.default_rng(7)
    scores = rng.random(5).tolist()
    grid = sorted({0.0, 1.0, *scores}, reverse=True)
    _, auc = roc(sweep(scores, grid))
    manual = {(0.0, 0.0), (1.0, 1.0)}
    for th in grid:
        tp = sum(1 for s, sc in zip(truth, scores) if s.is_anomalous and sc > th)
        fp = sum(1 for s, sc in zip(truth, scores) if not s.is_anomalous and sc > th)
        manual.add((fp / 3, tp / 2))
    pts = sorted(manual)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    assert auc == pytest.approx(float(trapezoid(ys, xs)), abs=1e-12)
    print(
        f"criterion 9: PASS perfect F1 1.0, chance AUC {chance_auc:.2f}, "
        f"trapezoid matches enumeration"
    )


def detected_steps(det):
    """The [start, end) steps of a step-gated detector's step_events."""
    bounds = [e["index"] for e in det.step_events]
    return list(zip(bounds[::2], bounds[1::2]))


def found_steps(steps, truth):
    """How many truth steps exactly one detected step overlaps, when that
    step overlaps no other truth step."""
    hits = 0
    for seg in truth:
        over = [(s, e) for s, e in steps if s < seg.end and seg.start < e]
        if len(over) == 1:
            s, e = over[0]
            hits += sum(1 for t in truth if s < t.end and t.start < e) == 1
    return hits


# lead_in_s x noise_std x gyro bias (deg/s on every axis); a lead-in longer
# than the bootstrap horizon leaves an unprimed stream on rest
LEAD_IN_CELLS = [
    pytest.param(
        lead,
        noise,
        bias,
        marks=[pytest.mark.xfail(strict=True, reason="D8: a lead-in over the bootstrap horizon")]
        if lead > BOOTSTRAP_HORIZON_S
        else [],
    )
    for lead in (2.0, 4.0, 8.0)
    for noise in (0.5, 2.0)
    for bias in (0.0, 3.0)
]


@pytest.mark.parametrize("lead_in_s, noise_std, gyro_bias", LEAD_IN_CELLS)
def test_criterion_10_unprimed_stream_learns_its_gait(lead_in_s, noise_std, gyro_bias):
    pairs = []
    for seed in range(10):
        rec, truth = generate(
            SynthConfig(
                noise_std=noise_std,
                rng_seed=seed,
                lead_in_s=lead_in_s,
                anomaly_kind=ANOMALY_KINDS[seed % 3],
            )
        )
        rec = Recording(rec.t, rec.accel, rec.gyro + gyro_bias, rec.sample_rate_hz, rec.meta)
        pairs.append((rec, truth))
    detectors = []

    def make_detector():
        detectors.append(step_detector())
        return detectors[-1]

    report = evaluate_recordings(pairs, make_detector, measure_rtf=False)
    found = sum(found_steps(detected_steps(d), t) for d, (_, t) in zip(detectors, pairs))
    recall = found / sum(len(t) for _, t in pairs)
    assert recall >= 0.9
    assert report.auc >= 0.99
    assert report.aggregate_f1 >= 0.95
    print(
        f"criterion 10: PASS lead-in {lead_in_s:g} s, noise {noise_std:g}, "
        f"gyro bias {gyro_bias:g}: step recall {recall:.3f}, AUC {report.auc:.4f}, "
        f"F1 {report.aggregate_f1:.4f}"
    )
