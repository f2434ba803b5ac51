import numpy as np
import pytest

from gaitmp import DataError
from gaitmp.dataset import (
    ANOMALY_KINDS,
    INGEST_BLOCK,
    STEP_ACCEL_AMPLITUDE,
    STEP_AMPLITUDE_DPS,
    STEP_DURATION_S,
    LabeledSegment,
    Recording,
    RecordingMeta,
    SynthConfig,
    _accel_channels,
    _normal_channels,
    _step_template,
    _tremor_channels,
    generate,
    load_annotations,
    load_recording,
    save_annotations,
    save_recording,
)
from gaitmp.signal import SensorSample, SignalSelector, project


def small_recording(n=64, rate=100.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    return Recording(t, rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), sample_rate_hz=rate)


class TestRecording:
    def test_infers_rate_from_timestamps(self):
        t = np.arange(50) / 128.0
        rec = Recording(t, np.zeros((50, 3)), np.zeros((50, 3)))
        assert rec.sample_rate_hz == pytest.approx(128.0)
        assert rec.n == 50
        assert rec.duration_s == pytest.approx(50 / 128.0)

    def test_rejects_non_uniform_sampling(self):
        t = np.arange(20) / 100.0
        t[10] += 0.004
        with pytest.raises(DataError, match="non-uniform"):
            Recording(t, np.zeros((20, 3)), np.zeros((20, 3)), sample_rate_hz=100.0)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(DataError):
            Recording(np.array([]), np.zeros((0, 3)), np.zeros((0, 3)), sample_rate_hz=100.0)
        t = np.arange(5) / 100.0
        g = np.zeros((5, 3))
        g[2, 1] = np.nan
        with pytest.raises(DataError):
            Recording(t, np.zeros((5, 3)), g, sample_rate_hz=100.0)

    @pytest.mark.parametrize("t", [[0.0, 0.0, 0.0], [0.02, 0.01, 0.0]], ids=["zero", "negative"])
    def test_rejects_a_median_period_that_is_not_positive(self, t):
        with pytest.raises(DataError, match="median period"):
            Recording(t, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_projection_matches_per_sample_path(self):
        rec = small_recording(n=2 * INGEST_BLOCK + 3)
        for sel in [SignalSelector(src, ch) for src in ("accel", "gyro")
                    for ch in ("x", "y", "z", "l1", "l2", "linf")]:
            fast = rec.project(sel).values
            slow = np.array([project(s, sel) for s in rec.iter_samples()])
            np.testing.assert_array_equal(fast, slow)

    def test_samples_view(self):
        rec = small_recording(n=3)
        samples = rec.samples
        assert len(samples) == 3
        assert samples[1].t == rec.t[1]
        assert samples[2].gyro == tuple(rec.gyro[2])

    @pytest.mark.parametrize(
        "n", [1, INGEST_BLOCK - 1, INGEST_BLOCK, INGEST_BLOCK + 1, 2 * INGEST_BLOCK + 3]
    )
    def test_iter_samples_across_block_boundaries(self, n):
        rec = small_recording(n=n, seed=n)
        samples = list(rec.iter_samples())
        assert len(samples) == n
        for i, s in enumerate(samples):
            assert type(s) is SensorSample
            assert s == SensorSample(rec.t[i], rec.accel[i], rec.gyro[i])
            assert type(s.t) is float and s.t == rec.t[i]
            for got, row in ((s.accel, rec.accel[i]), (s.gyro, rec.gyro[i])):
                assert type(got) is tuple and all(type(v) is float for v in got)
                assert got == tuple(row)

    def test_iter_samples_rechecks_rows_changed_after_construction(self):
        # the recording keeps the caller's arrays; one made writeable again
        # and given a NaN in its second block must not stream as a sample
        n = INGEST_BLOCK + 5
        gyro = np.zeros((n, 3))
        rec = Recording(np.arange(n) / 100.0, np.zeros((n, 3)), gyro, sample_rate_hz=100.0)
        gyro.flags.writeable = True
        gyro[INGEST_BLOCK + 2, 1] = np.nan
        samples = rec.iter_samples()
        for _ in range(INGEST_BLOCK):
            next(samples)
        with pytest.raises(DataError, match="non-finite"):
            next(samples)


class TestRecordingIO:
    def test_round_trip(self, tmp_path):
        rec = small_recording(n=200, seed=3)
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        back = load_recording(path)
        np.testing.assert_allclose(back.t, rec.t, atol=1e-9)
        np.testing.assert_allclose(back.accel, rec.accel, atol=1e-9)
        np.testing.assert_allclose(back.gyro, rec.gyro, atol=1e-9)
        assert back.sample_rate_hz == pytest.approx(rec.sample_rate_hz, rel=1e-6)
        assert back.meta.recording_id == "rec"

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n"
            "0.00,0,0,9.8,1,2,3\n"
            "0.01,0,0,9.8,4,5,6\n"
            "0.02,0,0,9.8,7,8,9\n"
        )
        rec = load_recording(path)
        assert rec.n == 3
        assert rec.sample_rate_hz == pytest.approx(100.0)

    def test_nan_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n0.01,0,nan,0,0,0,0\n0.02,0,0,0,0,0,0\n"
        )
        with pytest.raises(DataError, match="row 3"):
            load_recording(path)

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n0.01,0,x,0,0,0,0\n")
        with pytest.raises(DataError, match="row 3"):
            load_recording(path)

    def test_non_monotonic_t_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n0.01,0,0,0,0,0,0\n0.005,0,0,0,0,0,0\n"
        )
        with pytest.raises(DataError, match="row 4.*non-monotonic"):
            load_recording(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n")
        with pytest.raises(DataError, match="header"):
            load_recording(path)


HEADER = "t,ax,ay,az,gx,gy,gz\n"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (
            load_recording,
            HEADER + "0,0,0,0,0,0,0\n0.01,0,0,0,0,0\n",
            "row 3: expected 7 fields, got 6",
        ),
        (load_recording, HEADER, "no samples"),
        (
            load_recording,
            HEADER + "".join(f"{t},0,0,0,0,0,0\n" for t in (0, 0.01, 0.02, 0.05, 0.06)),
            "non-uniform sampling at sample 3: dt=0.03, expected 0.01",
        ),
        (load_annotations, "start,end,label\n0,100\n", "row 2: expected 3 fields"),
    ],
    ids=["recording-field-count", "recording-header-only", "recording-non-uniform",
         "annotations-field-count"],
)
def test_loader_errors_name_the_file(tmp_path, load, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        segs = [LabeledSegment(0, 100, "ok"), LabeledSegment(120, 200, "ab")]
        path = tmp_path / "ann.csv"
        save_annotations(segs, path)
        assert load_annotations(path) == segs

    def test_single_ok_row(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("start,end,label\n0,100,ok\n")
        assert load_annotations(path) == [LabeledSegment(0, 100, "ok")]

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("start,end,label\n0,100,ok\n90,150,ab\n")
        with pytest.raises(DataError, match="overlap"):
            load_annotations(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("start,end,label\n0,100,weird\n")
        with pytest.raises(DataError, match="row 2"):
            load_annotations(path)

    def test_inverted_range_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("start,end,label\n100,100,ok\n")
        with pytest.raises(DataError, match="row 2"):
            load_annotations(path)

    def test_label_census_at_dataset_scale(self, tmp_path):
        # mirrors the reference dataset's census: 1047 normal + 318 anomalous
        rng = np.random.default_rng(0)
        labels = ["ok"] * 1047 + ["ab"] * 318
        rng.shuffle(labels)
        segs, cursor = [], 0
        for lab in labels:
            segs.append(LabeledSegment(cursor, cursor + 45, lab))
            cursor += 60
        path = tmp_path / "census.csv"
        save_annotations(segs, path)
        back = load_annotations(path)
        counts = {"ok": 0, "ab": 0}
        for seg in back:
            counts[seg.label] += 1
        assert counts == {"ok": 1047, "ab": 318}


class TestGenerator:
    def test_deterministic(self):
        cfg = SynthConfig(rng_seed=42)
        rec1, segs1 = generate(cfg)
        rec2, segs2 = generate(cfg)
        np.testing.assert_array_equal(rec1.gyro, rec2.gyro)
        np.testing.assert_array_equal(rec1.accel, rec2.accel)
        assert segs1 == segs2

    def test_seed_changes_output(self):
        rec1, _ = generate(SynthConfig(rng_seed=1))
        rec2, _ = generate(SynthConfig(rng_seed=2))
        assert not np.array_equal(rec1.gyro, rec2.gyro)

    def test_label_layout(self):
        cfg = SynthConfig(n_normal_steps=10, n_anomalous_steps=2, anomaly_position=7)
        _, segs = generate(cfg)
        assert [s.label for s in segs] == ["ok"] * 7 + ["ab"] * 2 + ["ok"] * 3

    def test_segments_tile_active_spans(self):
        rec, segs = generate(SynthConfig(rng_seed=5))
        sel = SignalSelector("gyro", "linf")
        ts = rec.project(sel)
        for seg in segs:
            inside = np.abs(ts.values[seg.start : seg.end]).max()
            assert inside > 50.0  # step energy present
        # gaps hold only noise
        gap = ts.values[segs[0].end + 10 : segs[1].start - 10]
        assert np.abs(gap).max() < 15.0

    def test_all_ok_when_no_anomalies(self):
        _, segs = generate(SynthConfig(n_normal_steps=5, n_anomalous_steps=0))
        assert all(s.label == "ok" for s in segs)
        assert len(segs) == 5

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="zero steps"):
            generate(SynthConfig(n_normal_steps=0, n_anomalous_steps=0))

    def test_anomaly_position_bounds(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(n_normal_steps=4, n_anomalous_steps=1, anomaly_position=5))

    @pytest.mark.parametrize("kind", ANOMALY_KINDS)
    def test_each_kind_generates(self, kind):
        cfg = SynthConfig(n_normal_steps=6, n_anomalous_steps=2, anomaly_kind=kind, rng_seed=3)
        rec, segs = generate(cfg)
        ab = [s for s in segs if s.is_anomalous]
        assert len(ab) == 2
        if kind == "time-warped":
            ok_len = next(s.end - s.start for s in segs if not s.is_anomalous)
            assert all(s.end - s.start == round(1.6 * 45) for s in ab)
            assert ok_len == 45

    @pytest.mark.parametrize("rate", [1.0, 1.1, 0.5])
    def test_rate_with_no_reading_per_step_rejected(self, rate):
        with pytest.raises(ValueError, match=r"sample_rate_hz .* 0\.45 s step"):
            SynthConfig(sample_rate_hz=rate)

    @pytest.mark.parametrize(
        "period, kind, bound",
        [(0.3, "shape-replaced", "0.55"), (0.46, "shape-replaced", "0.55"), (0.8, "time-warped", "0.82")],
    )
    def test_period_shorter_than_a_jittered_step_rejected(self, period, kind, bound):
        # 0.46 is over the 0.45 s step, but a start 0.05 s late would still
        # run into the next step's start 0.05 s early
        with pytest.raises(ValueError, match=rf"step_period_s {period} is under {bound} s"):
            SynthConfig(step_period_s=period, anomaly_kind=kind)

    @pytest.mark.parametrize("kind, period", [("shape-replaced", 0.55), ("time-warped", 0.82)])
    def test_steps_at_the_shortest_period_lay_out(self, kind, period):
        for seed in range(20):
            cfg = SynthConfig(
                n_normal_steps=40, step_period_s=period, anomaly_kind=kind, rng_seed=seed, lead_in_s=0.0
            )
            _, segs = generate(cfg)
            assert len(segs) == 42

    @pytest.mark.parametrize("kind", ANOMALY_KINDS)
    def test_one_reading_per_step_generates(self, kind):
        rec, segs = generate(SynthConfig(sample_rate_hz=1.2, anomaly_kind=kind, noise_std=0.0))
        assert all(s.end - s.start == 1 for s in segs)
        assert rec.n == segs[-1].end + 1

    def test_recording_round_trips_through_files(self, tmp_path):
        rec, segs = generate(SynthConfig(rng_seed=9))
        save_recording(rec, tmp_path / "r.csv")
        save_annotations(segs, tmp_path / "r.ann.csv")
        back = load_recording(tmp_path / "r.csv")
        np.testing.assert_allclose(back.gyro, rec.gyro, atol=1e-9)
        assert load_annotations(tmp_path / "r.ann.csv") == segs

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(anomaly_kind="spooky")


def fresh_template(rate, kind):
    """A step's (gyro, accel) built from the formula, with no cache."""
    n = round(STEP_DURATION_S * rate)
    if kind == "time-warped":
        n = round(1.6 * STEP_DURATION_S * rate)
    tau = np.arange(n) / n
    gyro = _tremor_channels(tau) if kind == "shape-replaced" else _normal_channels(tau)
    if kind == "amplitude-scaled":
        gyro = np.tanh(8.0 * gyro)
    return gyro * STEP_AMPLITUDE_DPS, _accel_channels(tau, STEP_ACCEL_AMPLITUDE)


class TestStepTemplate:
    @pytest.mark.parametrize("rate", [50.0, 100.0, 128.0, 200.0])
    @pytest.mark.parametrize("kind", [None, *ANOMALY_KINDS])
    def test_cached_template_is_the_formula_bit_for_bit(self, rate, kind):
        # compared with the computation, not stored digests: SIMD exp and sin
        # may differ in the last bit between CPUs
        want_gyro, want_accel = fresh_template(rate, kind)
        for _ in range(2):  # a miss, then a hit
            gyro, accel = _step_template(rate, kind)
            assert np.array_equal(gyro, want_gyro)
            assert np.array_equal(accel, want_accel)

    @pytest.mark.parametrize("kind", [None, "time-warped"])
    def test_cached_arrays_are_read_only(self, kind):
        gyro, accel = _step_template(100.0, kind)
        for arr in (gyro, accel):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0
        assert np.array_equal(gyro, fresh_template(100.0, kind)[0])

    def test_other_rates_and_kinds_leave_a_recording_unchanged(self):
        a = SynthConfig(rng_seed=4, anomaly_kind="time-warped")
        b = SynthConfig(rng_seed=4, anomaly_kind="amplitude-scaled", sample_rate_hz=128.0)
        rec1, segs1 = generate(a)
        generate(b)
        rec2, segs2 = generate(a)
        for name in ("t", "accel", "gyro"):
            assert np.array_equal(getattr(rec1, name), getattr(rec2, name))
        assert segs1 == segs2
