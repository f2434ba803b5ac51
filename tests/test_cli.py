import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gaitmp
from gaitmp.cli import main
from gaitmp.dataset import (
    LabeledSegment,
    Recording,
    load_annotations,
    load_recording,
    save_annotations,
    save_recording,
)
from gaitmp.detectors import AlarmEvent, NaiveDetectorConfig, TraceRecord, load_jsonl
from gaitmp.mp import brute_force_mp
from gaitmp.signal import SignalSelector, envelope_window_samples
from gaitmp.steps import StepDetector
from oracle import envelope_by_definition, segments_by_definition


@pytest.fixture()
def runner():
    return CliRunner()


def gen(runner, out, *extra):
    result = runner.invoke(main, ["generate", "-o", str(out), "--seed", "0", *extra])
    assert result.exit_code == 0, result.output
    return result


class TestGenerate:
    def test_writes_pair_and_prints_seed(self, runner, tmp_path):
        result = gen(runner, tmp_path / "rec")
        assert "seed 0" in result.output
        assert (tmp_path / "rec" / "recording.csv").exists()
        assert (tmp_path / "rec" / "annotations.csv").exists()

    def test_deterministic_rerun(self, runner, tmp_path):
        gen(runner, tmp_path / "a")
        gen(runner, tmp_path / "b")
        assert (tmp_path / "a" / "recording.csv").read_bytes() == (
            tmp_path / "b" / "recording.csv"
        ).read_bytes()

    def test_default_rate_is_100hz(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        rec = load_recording(tmp_path / "rec" / "recording.csv")
        assert rec.sample_rate_hz == pytest.approx(100.0)

    def test_zero_steps_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "-o", str(tmp_path / "x"), "--normal", "0", "--anomalous", "0"]
        )
        assert result.exit_code == 2

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_normal_steps = 4\nrng_seed = 9\n")
        result = runner.invoke(
            main,
            ["generate", "-o", str(tmp_path / "rec"), "--config", str(cfg), "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        assert "seed 1" in result.output  # flag beats file
        truth = load_annotations(tmp_path / "rec" / "annotations.csv")
        assert sum(1 for s in truth if not s.is_anomalous) == 4

    def test_config_file_keys_match_their_flags(self, runner, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "# walking bout\n"
            "n_normal_steps = 8\n"
            "n_anomalous_steps = 3\n"
            "anomaly_kind = time-warped\n"
            "noise_std = 1.5  # deg/s\n"
            "rng_seed = 77\n"
            "anomaly_position = 4\n"
        )
        runs = {
            "file": ["--config", str(cfg)],
            "flags": ["--normal", "8", "--anomalous", "3", "--kind", "time-warped",
                      "--noise", "1.5", "--seed", "77", "--position", "4"],
        }
        for name, extra in runs.items():
            result = runner.invoke(main, ["generate", "-o", str(tmp_path / name), *extra])
            assert result.exit_code == 0, result.output
            assert "seed 77" in result.output
        for csv in ("recording.csv", "annotations.csv"):
            assert (tmp_path / "file" / csv).read_bytes() == (tmp_path / "flags" / csv).read_bytes()
        truth = load_annotations(tmp_path / "file" / "annotations.csv")
        assert [s.label for s in truth] == ["ok"] * 4 + ["ab"] * 3 + ["ok"] * 4

    @pytest.mark.parametrize(
        "text, line", [("wat = 3", 1), ("# steps\nn_normal_steps = many", 2)]
    )
    def test_bad_config_line_is_usage_error_naming_it(self, runner, tmp_path, text, line):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(text + "\n")
        result = runner.invoke(main, ["generate", "-o", str(tmp_path / "rec"), "--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{cfg}: config line {line}" in result.output
        assert not (tmp_path / "rec").exists()

    def test_position_that_does_not_parse_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "-o", str(tmp_path / "rec"), "--position", "abc"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--position" in result.output
        assert not (tmp_path / "rec").exists()

    def test_position_auto_beats_config_file(self, runner, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("anomaly_position = 4\n")
        gen(runner, tmp_path / "file", "--config", str(cfg))
        gen(runner, tmp_path / "auto", "--config", str(cfg), "--position", "auto")
        gen(runner, tmp_path / "default")

        def annotations(name):
            return (tmp_path / name / "annotations.csv").read_bytes()

        # 'auto' puts the anomalous run mid-bout, after 5 of 10 normal steps
        assert annotations("auto") == annotations("default") != annotations("file")


class TestSegment:
    def test_stdout_rows(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(main, ["segment", str(tmp_path / "rec" / "recording.csv")])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "start,end"
        assert len(lines) > 5
        start, end = map(int, lines[1].split(","))
        assert start < end

    def test_output_file(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        out = tmp_path / "segments.csv"
        result = runner.invoke(
            main, ["segment", str(tmp_path / "rec" / "recording.csv"), "-o", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("start,end\n")

    @staticmethod
    def segments_by_definition(path, flags):
        rec = load_recording(path)
        step_flags = {k: v for k, v in flags.items() if k != "envelope_ms"}
        w = envelope_window_samples(flags.get("envelope_ms", 100.0), rec.sample_rate_hz)
        env = envelope_by_definition(rec.project(SignalSelector()).values, w)
        det = StepDetector(rec.sample_rate_hz, **step_flags)
        det.recompute_threshold(env.max())
        return segments_by_definition(det, env)

    @pytest.mark.parametrize("rate", [100.0, 60.0])
    @pytest.mark.parametrize(
        "flags",
        [
            {},
            {"envelope_ms": 37.0, "onset_ms": 80.0, "release_ms": 20.0, "min_step_ms": 300.0},
        ],
    )
    def test_rows_are_the_segments_of_the_definition(self, runner, tmp_path, rate, flags):
        gen(runner, tmp_path / "rec", "--rate", f"{rate:g}")
        path = tmp_path / "rec" / "recording.csv"
        args = [f"--{k.replace('_', '-')}={v:g}" for k, v in flags.items()]
        expected = self.segments_by_definition(path, flags)
        assert len(expected) > 5
        # the same recording cut one reading before its third step ends, so
        # the output's last step ends only when the stream does
        n_cut = expected[2][1] - 1
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(path.read_text().splitlines(keepends=True)[: 1 + n_cut]))
        cut_expected = self.segments_by_definition(cut, flags)
        assert cut_expected[-1][1] == n_cut
        for p, segs in ((path, expected), (cut, cut_expected)):
            result = runner.invoke(main, ["segment", str(p), *args])
            assert result.exit_code == 0, result.output
            assert result.output == "".join(f"{s},{e}\n" for s, e in [("start", "end"), *segs])


class TestMp:
    def test_row_count_is_profile_length(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        rec = load_recording(tmp_path / "rec" / "recording.csv")
        result = runner.invoke(
            main, ["mp", str(tmp_path / "rec" / "recording.csv"), "-m", "40"]
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()
        assert len(rows) - 1 == rec.n - 40 + 1

    def test_oracle_agrees(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["mp", str(tmp_path / "rec" / "recording.csv"), "-m", "24", "--oracle",
             "-o", str(tmp_path / "mp.csv")],
        )
        assert result.exit_code == 0, result.output
        assert "oracle ok" in result.output

    def test_oracle_agrees_on_quiet_data_at_a_level(self, runner, tmp_path):
        # a gyro at rest reading 100 +- 0.001: raw-value running dot
        # products cancel on such data and pick wrong neighbours
        gyro = np.zeros((1000, 3))
        gyro[:, 0] = 100.0 + 1e-3 * np.random.default_rng(0).normal(size=1000)
        save_recording(Recording(np.arange(1000) / 100.0, np.zeros((1000, 3)), gyro),
                       tmp_path / "quiet.csv")
        result = runner.invoke(main, ["mp", str(tmp_path / "quiet.csv"), "-m", "3", "--oracle",
                                      "-o", str(tmp_path / "mp.csv")])
        assert result.exit_code == 0, result.output
        assert "oracle ok" in result.output

    def test_oracle_mismatch_exits_1(self, runner, tmp_path, monkeypatch):
        # a failed assertion, not an error: exit 1 and no `error:` line
        def perturbed(*args, **kwargs):
            ref = brute_force_mp(*args, **kwargs)
            return dataclasses.replace(ref, profile=ref.profile + 1e-3)

        monkeypatch.setattr("gaitmp.cli.brute_force_mp", perturbed)
        gen(runner, tmp_path / "rec")
        result = runner.invoke(main, ["mp", str(tmp_path / "rec" / "recording.csv"), "-m", "24",
                                      "--oracle", "-o", str(tmp_path / "mp.csv")])
        assert result.exit_code == 1, result.output
        assert "oracle mismatch" in result.output
        assert not re.search(r"^error: ", result.output, re.M), result.output

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["unset", "set"])
    def test_closed_stdout_exits_1_quietly(self, runner, tmp_path, unbuffered):
        # a reader that closes stdout mid-write, as a program that stops
        # after one line does: click's broken-pipe rule exits 1 and prints
        # nothing. The 15,396 rows come to about 356 KB, over five times a
        # 64 KB pipe buffer, so the command is still writing when the pipe
        # closes. The child runs with PYTHONUNBUFFERED unset and set: an
        # unbuffered stdout returns a short write to the closing pipe, which
        # the output must retry to meet the broken pipe.
        gen(runner, tmp_path / "rec", "--normal", "150", "--seed", "4")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(gaitmp.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
        )
        argv = ["mp", str(tmp_path / "rec" / "recording.csv"), "-m", "50"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaitmp.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
        )
        try:
            assert proc.stdout.readline() == b"index,profile,nn_index\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert err == b""

    def test_invalid_window_is_usage_error(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main, ["mp", str(tmp_path / "rec" / "recording.csv"), "-m", "2"]
        )
        assert result.exit_code == 2

    def test_missing_input_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["mp", str(tmp_path / "nope.csv"), "-m", "8"])
        assert result.exit_code == 2


class TestDetect:
    def test_alarms_only_inside_anomalous_spans(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        alarms_path = tmp_path / "alarms.jsonl"
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(alarms_path)],
        )
        assert result.exit_code == 0, result.output
        alarms = load_jsonl(AlarmEvent, alarms_path)
        truth = load_annotations(tmp_path / "rec" / "annotations.csv")
        spans = [(s.start, s.end) for s in truth if s.is_anomalous]
        assert len(alarms) == 2
        assert all(any(a <= al.sample_index < b for a, b in spans) for al in alarms)

    def test_all_normal_recording_is_silent(self, runner, tmp_path):
        gen(runner, tmp_path / "rec", "--anomalous", "0", "--normal", "12")
        alarms_path = tmp_path / "alarms.jsonl"
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(alarms_path)],
        )
        assert result.exit_code == 0
        assert load_jsonl(AlarmEvent, alarms_path) == []

    def test_emit_trace(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        trace_path = tmp_path / "trace.jsonl"
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"),
             "-o", str(tmp_path / "a.jsonl"), "--emit-trace", str(trace_path)],
        )
        assert result.exit_code == 0
        rows = load_jsonl(TraceRecord, trace_path)
        assert rows and all(0.0 <= r.score <= 1.0 for r in rows)

    def test_flag_beats_config_file(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "det.cfg"
        cfg.write_text("discord_threshold = 0.05\n")
        rec_csv = str(tmp_path / "rec" / "recording.csv")
        low = tmp_path / "low.jsonl"
        high = tmp_path / "high.jsonl"
        assert runner.invoke(
            main, ["detect", rec_csv, "-o", str(low), "--config", str(cfg)]
        ).exit_code == 0
        assert runner.invoke(
            main,
            ["detect", rec_csv, "-o", str(high), "--config", str(cfg), "--threshold", "0.5"],
        ).exit_code == 0
        assert len(load_jsonl(AlarmEvent, low)) > len(load_jsonl(AlarmEvent, high)) == 2

    def test_unknown_config_key_is_usage_error(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "det.cfg"
        cfg.write_text("not_a_key = 1\n")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"),
             "-o", str(tmp_path / "a.jsonl"), "--config", str(cfg)],
        )
        assert result.exit_code == 2
        assert "line 1" in result.output

    @pytest.mark.parametrize("mode", ["step", "naive"])
    @pytest.mark.parametrize(
        "text", ["discord_threshold high", "discord_threshold = high", "frame_length = 9"]
    )
    def test_bad_config_line_is_usage_error_naming_it(self, runner, tmp_path, mode, text):
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"# detector settings\n\nsignal = gyro:linf\n{text}\n")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "--mode", mode,
             "-o", str(tmp_path / "a.jsonl"), "--config", str(cfg)],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{cfg}: config line 4" in result.output
        assert not (tmp_path / "a.jsonl").exists()

    def test_naive_mode_runs(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "--mode", "naive",
             "-o", str(tmp_path / "a.jsonl")],
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("seconds, code", [("2", 0), ("1.5", 2)])
    def test_naive_history_len_is_in_seconds(self, runner, tmp_path, seconds, code):
        # at 100 Hz, 2 s is 200 samples, the least twice the 100-sample Frame allows
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "--mode", "naive",
             "-o", str(tmp_path / "a.jsonl"), "--history-len", seconds],
        )
        assert result.exit_code == code, result.output
        if code:
            assert "history_len_s must span at least 2*frame_len samples" in result.output

    def test_naive_config_history_len_s_matches_the_flag(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "naive.cfg"
        cfg.write_text("history_len_s = 5\n")
        rec_csv = str(tmp_path / "rec" / "recording.csv")
        runs = {
            "file": ["--config", str(cfg)],
            "flag": ["--history-len", "5"],
            "default": [],
        }
        for name, extra in runs.items():
            result = runner.invoke(
                main,
                ["detect", rec_csv, "--mode", "naive", "--threshold", "0.3",
                 "-o", str(tmp_path / f"{name}.jsonl"),
                 "--emit-trace", str(tmp_path / f"{name}-trace.jsonl"), *extra],
            )
            assert result.exit_code == 0, result.output
        file_alarms = load_jsonl(AlarmEvent, tmp_path / "file.jsonl")
        assert file_alarms and file_alarms == load_jsonl(AlarmEvent, tmp_path / "flag.jsonl")
        assert (tmp_path / "file-trace.jsonl").read_bytes() == (
            tmp_path / "flag-trace.jsonl"
        ).read_bytes()
        # 5 s of History is not the default 10 s
        assert (tmp_path / "file-trace.jsonl").read_bytes() != (
            tmp_path / "default-trace.jsonl"
        ).read_bytes()

    def test_naive_config_rejects_the_old_history_len_key(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "naive.cfg"
        cfg.write_text("frame_len = 50\nhistory_len = 500\n")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "--mode", "naive",
             "-o", str(tmp_path / "a.jsonl"), "--config", str(cfg)],
        )
        assert result.exit_code == 2
        assert f"{cfg}: config line 2: unknown key 'history_len'" in result.output
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("flag", [["--frame-len", "50"], ["--hop", "5"]])
    def test_naive_only_flags_rejected_in_step_mode(self, runner, tmp_path, flag):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"),
             "-o", str(tmp_path / "a.jsonl"), *flag],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{flag[0]} does not apply to step mode" in result.output
        assert not (tmp_path / "a.jsonl").exists()

    def test_prime_reference(self, runner, tmp_path):
        gen(runner, tmp_path / "ref", "--anomalous", "0", "--normal", "8")
        gen(runner, tmp_path / "rec")
        alarms_path = tmp_path / "a.jsonl"
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(alarms_path),
             "--prime", str(tmp_path / "ref" / "recording.csv")],
        )
        assert result.exit_code == 0, result.output
        assert len(load_jsonl(AlarmEvent, alarms_path)) == 2

    def test_prime_at_another_rate_is_usage_error(self, runner, tmp_path):
        gen(runner, tmp_path / "ref", "--anomalous", "0", "--normal", "8", "--rate", "50")
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(tmp_path / "a.jsonl"),
             "--prime", str(tmp_path / "ref" / "recording.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "reference sampled at 50 Hz" in result.output
        assert not (tmp_path / "a.jsonl").exists()

    def test_prime_at_the_same_rate_read_from_timestamps(self, runner, tmp_path):
        # a 60 Hz prime under 10 s and a 60 Hz recording over 40 s read rates
        # about 2e-10 and 2e-9 off 60 from their %.12g timestamps
        gen(runner, tmp_path / "ref", "--anomalous", "0", "--normal", "3", "--rate", "60")
        gen(runner, tmp_path / "rec", "--normal", "40", "--rate", "60")
        rates = [load_recording(tmp_path / d / "recording.csv").sample_rate_hz for d in ("ref", "rec")]
        assert rates[0] != rates[1]
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(tmp_path / "a.jsonl"),
             "--prime", str(tmp_path / "ref" / "recording.csv")],
        )
        assert result.exit_code == 0, result.output

    def test_prime_with_no_step_is_usage_error(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        flat = Recording(np.arange(400) / 100.0, np.zeros((400, 3)), np.zeros((400, 3)))
        save_recording(flat, tmp_path / "flat.csv")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "-o", str(tmp_path / "a.jsonl"),
             "--prime", str(tmp_path / "flat.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: no step found in the reference" in result.output
        assert not (tmp_path / "a.jsonl").exists()

    def test_prime_rejected_in_naive_mode(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["detect", str(tmp_path / "rec" / "recording.csv"), "--mode", "naive",
             "-o", str(tmp_path / "a.jsonl"),
             "--prime", str(tmp_path / "rec" / "recording.csv")],
        )
        assert result.exit_code == 2


class TestEvaluate:
    def test_report_and_csvs(self, runner, tmp_path):
        gen(runner, tmp_path / "r0")
        gen(runner, tmp_path / "r1", "--kind", "time-warped")
        out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "r0"), str(tmp_path / "r1"),
             "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads((out / "report.json").read_text())
        assert len(data["families"]) == 1
        fam = data["families"][0]
        assert fam["aggregate_f1"] == 1.0
        assert fam["auc"] == pytest.approx(1.0)
        for name in ("roc.csv", "f1_by_threshold.csv", "earliness.csv"):
            assert (out / name).exists()

    def test_history_len_families(self, runner, tmp_path):
        gen(runner, tmp_path / "r0")
        out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "r0"), "-o", str(out),
             "--history-len", "5", "--history-len", "20"],
        )
        assert result.exit_code == 0, result.output
        data = json.loads((out / "report.json").read_text())
        assert [f["history_len_s"] for f in data["families"]] == [5.0, 20.0]
        assert (out / "roc-h5.csv").exists()
        assert (out / "roc-h20.csv").exists()

    @pytest.mark.parametrize(
        "lens, labels, suffixes",
        [([], [NaiveDetectorConfig().history_len_s], [""]), (["5", "10"], [5.0, 10.0], ["-h5", "-h10"])],
        ids=["default", "families"],
    )
    def test_naive_families_are_labelled_from_the_naive_config(
        self, runner, tmp_path, lens, labels, suffixes
    ):
        gen(runner, tmp_path / "r0")
        out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "r0"), "-o", str(out), "--mode", "naive",
             *[a for hl in lens for a in ("--history-len", hl)]],
        )
        assert result.exit_code == 0, result.output
        assert all(f"history {hl:g}s:" in result.output for hl in labels)
        data = json.loads((out / "report.json").read_text())
        assert [f["history_len_s"] for f in data["families"]] == labels
        assert sorted(p.name for p in out.glob("roc*.csv")) == sorted(
            f"roc{suffix}.csv" for suffix in suffixes
        )

    @pytest.mark.parametrize(
        "rates, normals, code",
        [(["60", "60"], ["3", "40"], 0), (["50", "100"], ["8", "8"], 2)],
        ids=["same-rate-read-apart", "different-rates"],
    )
    def test_recordings_must_share_a_rate(self, runner, tmp_path, rates, normals, code):
        for k, (rate, normal) in enumerate(zip(rates, normals)):
            gen(runner, tmp_path / f"r{k}", "--rate", rate, "--normal", normal)
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "r0"), str(tmp_path / "r1"),
             "-o", str(tmp_path / "report")],
        )
        assert result.exit_code == code, result.output
        assert ("disagree on sample rate" in result.output) == bool(code)

    def test_input_order_does_not_change_report(self, runner, tmp_path):
        gen(runner, tmp_path / "r0")
        gen(runner, tmp_path / "r1", "--kind", "amplitude-scaled")
        outs = []
        for name, ordered in (("fwd", ["r0", "r1"]), ("rev", ["r1", "r0"])):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["evaluate", *[str(tmp_path / d) for d in ordered], "-o", str(out)],
            )
            assert result.exit_code == 0, result.output
            data = json.loads((out / "report.json").read_text())
            for fam in data["families"]:
                fam["real_time_factor"] = None  # timing is the one legitimate diff
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_annotation_overrun_is_data_error(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        save_annotations(
            [LabeledSegment(0, 10**6, "ab")], tmp_path / "rec" / "annotations.csv"
        )
        result = runner.invoke(
            main, ["evaluate", str(tmp_path / "rec"), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 2

    def test_rate_mismatch_is_data_error(self, runner, tmp_path):
        gen(runner, tmp_path / "r0")
        gen(runner, tmp_path / "r1", "--rate", "50")
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "r0"), str(tmp_path / "r1"),
             "-o", str(tmp_path / "out")],
        )
        assert result.exit_code == 2


class TestBench:
    def test_prints_rtf_and_asserts(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["bench", str(tmp_path / "rec" / "recording.csv"), "--runs", "2",
             "--assert-realtime"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("rtf ")
        assert float(result.output.split()[1]) < 1.0

    def test_naive_mode_prints_rtf(self, runner, tmp_path):
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main,
            ["bench", str(tmp_path / "rec" / "recording.csv"), "--mode", "naive",
             "--signal", "accel:l2", "--runs", "1"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("rtf ")

    def test_slower_than_realtime_fails_the_assertion(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("gaitmp.cli.real_time_factor", lambda *a, **k: 2.0)
        gen(runner, tmp_path / "rec")
        result = runner.invoke(
            main, ["bench", str(tmp_path / "rec" / "recording.csv"), "--assert-realtime"]
        )
        assert result.exit_code == 1, result.output
        assert result.output == "rtf 2\n"

    def test_prints_four_significant_digits(self, runner, tmp_path, monkeypatch):
        # a faster-than-realtime factor keeps its digits, not just its first
        monkeypatch.setattr("gaitmp.cli.real_time_factor", lambda *a, **k: 0.000742)
        gen(runner, tmp_path / "rec")
        result = runner.invoke(main, ["bench", str(tmp_path / "rec" / "recording.csv")])
        assert result.exit_code == 0, result.output
        assert result.output == "rtf 0.000742\n"


class TestUsageErrors:
    """Bad input exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize(
        "args, line",
        [
            (["detect", "{rec}", "-o", "{tmp}/a.jsonl"], "min_query_len_ms = 250"),
            (["detect", "{rec}", "-o", "{tmp}/a.jsonl"], "bootstrap_horizon_s = 3"),
            (["detect", "{rec}", "-o", "{tmp}/a.jsonl", "--mode", "naive"], "overlap_fraction = 0.25"),
            (["generate", "-o", "{tmp}/gen"], "template.amplitude_dps = 120"),
        ],
        ids=["step-min-query", "step-bootstrap", "naive-overlap", "generate-template"],
    )
    def test_fixed_values_are_unknown_config_keys(self, runner, tmp_path, args, line):
        # each key names a value fixed in the code, and the line sets it to
        # that very value
        gen(runner, tmp_path / "rec")
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"# fixed in the code\n{line}\n")
        key = line.split(" =")[0]
        paths = {"rec": str(tmp_path / "rec" / "recording.csv"), "tmp": str(tmp_path)}
        result = runner.invoke(main, [a.format(**paths) for a in args] + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"{cfg}: config line 2: unknown key '{key}'" in result.output
        assert not (tmp_path / "a.jsonl").exists()
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["bench", "{rec}", "--runs", "0"],
            ["segment", "{rec}", "--signal", "both:l2"],
            ["mp", "{rec}", "-m", "20", "--signal", "both:l2"],
            ["bench", "{rec}", "--signal", "both:l2"],
            ["detect", "{rec}", "-o", "{out}/a.jsonl", "--signal", "both:l2"],
            ["detect", "{rec}", "-o", "{out}/a.jsonl", "--mode", "naive", "--signal", "both:l2"],
            ["segment", "{rec}", "--envelope-ms", "0"],
            # the grid is fixed at 101 points, so there is no flag to set it
            ["evaluate", "{dir}", "-o", "{out}", "--grid-points", "101"],
        ],
        ids=["bench-runs-0", "segment-both", "mp-both", "bench-both",
             "detect-both", "detect-naive-both", "segment-envelope-0", "evaluate-no-grid-points"],
    )
    def test_exit_2_without_traceback(self, runner, tmp_path, args):
        gen(runner, tmp_path / "rec")
        paths = {
            "rec": str(tmp_path / "rec" / "recording.csv"),
            "dir": str(tmp_path / "rec"),
            "out": str(tmp_path / "out"),
        }
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, blocked",
        [
            (["segment", "{rec}", "-o", "{tmp}/missing/seg.csv"], None),
            (["mp", "{rec}", "-m", "20", "-o", "{tmp}/missing/mp.csv"], None),
            (["evaluate", "{dir}", "-o", "{tmp}/out"], "roc.csv"),
            (["evaluate", "{dir}", "-o", "{tmp}/out"], "report.json"),
        ],
        ids=["segment-missing-dir", "mp-missing-dir", "evaluate-roc-is-dir",
             "evaluate-report-is-dir"],
    )
    def test_output_that_cannot_be_written_is_usage_error(self, runner, tmp_path, args, blocked):
        # a file in a missing directory, or an output name taken by a directory
        gen(runner, tmp_path / "rec")
        if blocked is not None:
            (tmp_path / "out" / blocked).mkdir(parents=True)
        paths = {
            "rec": str(tmp_path / "rec" / "recording.csv"),
            "dir": str(tmp_path / "rec"),
            "tmp": str(tmp_path),
        }
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert re.search(r"^error: ", result.output, re.M), result.output

    @pytest.mark.parametrize(
        "args, name",
        [
            (["segment", "{bad}", "-o", "{out}/seg.csv"], "recording.csv"),
            (["mp", "{bad}", "-m", "20", "-o", "{out}/mp.csv"], "recording.csv"),
            (["detect", "{bad}", "-o", "{out}/a.jsonl"], "recording.csv"),
            (["bench", "{bad}", "--runs", "1"], "recording.csv"),
            (["evaluate", "{dir}", "-o", "{out}/report"], "recording.csv"),
            (["evaluate", "{dir}", "-o", "{out}/report"], "annotations.csv"),
            (["generate", "-o", "{out}/gen", "--config", "{bad}"], "x.cfg"),
            (["detect", "{rec}", "-o", "{out}/a.jsonl", "--config", "{bad}"], "x.cfg"),
        ],
        ids=["segment", "mp", "detect", "bench", "evaluate-recording", "evaluate-annotations",
             "generate-config", "detect-config"],
    )
    def test_file_that_is_not_utf8_is_data_error_naming_it(self, runner, tmp_path, args, name):
        gen(runner, tmp_path / "rec")
        bad = tmp_path / "rec" / name
        first = {"recording.csv": b"t,ax,ay,az,gx,gy,gz\n", "annotations.csv": b"start,end,label\n"}
        bad.write_bytes(first.get(name, b"") + b"0,\xff,0,0,0,0,0\n")
        (tmp_path / "out").mkdir()
        paths = {
            "bad": str(bad),
            "rec": str(tmp_path / "rec" / "recording.csv"),
            "dir": str(tmp_path / "rec"),
            "out": str(tmp_path / "out"),
        }
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert re.search(rf"^error: .*{re.escape(str(bad))}", result.output, re.M), result.output
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize(
        "args, line, setting",
        [
            (["segment", "{rec}", "--envelope-ms", "inf"], None, "window_ms"),
            (["segment", "{rec}", "--onset-ms", "inf"], None, "onset_ms"),
            (["segment", "{rec}", "--min-step-ms", "inf"], None, "min_step_ms"),
            (["segment", "{rec}", "--release-ms", "nan"], None, "release_ms"),
            (["generate", "-o", "{out}", "--period", "inf"], None, "step_period_s"),
            (["generate", "-o", "{out}", "--rate", "inf"], None, "sample_rate_hz"),
            (["generate", "-o", "{out}"], "lead_in_s = inf", "lead_in_s"),
            (["generate", "-o", "{out}"], "tail_s = nan", "tail_s"),
            (["generate", "-o", "{out}", "--noise", "nan"], None, "noise_std"),
            (["generate", "-o", "{out}", "--noise", "inf"], None, "noise_std"),
            (["generate", "-o", "{out}"], "noise_std = nan", "noise_std"),
            (["detect", "{rec}", "-o", "{out}/a.jsonl", "--history-len", "inf"], None,
             "history_len_s"),
            (["detect", "{rec}", "-o", "{out}/a.jsonl", "--mode", "naive", "--history-len", "inf"],
             None, "history_len_s"),
            (["detect", "{rec}", "-o", "{out}/a.jsonl"], "envelope_window_ms = inf", "window_ms"),
        ],
        ids=["segment-envelope", "segment-onset", "segment-min-step", "segment-release-nan",
             "generate-period", "generate-rate", "generate-lead-in", "generate-tail-nan",
             "generate-noise-nan", "generate-noise-inf", "generate-config-noise-nan",
             "detect-history", "detect-naive-history", "detect-config-envelope"],
    )
    def test_setting_that_is_not_finite_is_usage_error(self, runner, tmp_path, args, line, setting):
        gen(runner, tmp_path / "rec")
        paths = {"rec": str(tmp_path / "rec" / "recording.csv"), "out": str(tmp_path / "out")}
        argv = [a.format(**paths) for a in args]
        if line is not None:
            cfg = tmp_path / "x.cfg"
            cfg.write_text(f"{line}\n")
            argv += ["--config", str(cfg)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert re.search(rf"^error: .*\b{setting}\b.*finite", result.output, re.M), result.output
        assert not (tmp_path / "out").exists()
