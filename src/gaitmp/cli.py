"""Command line front end: synthesis, segmentation, profiles, detection, scoring.

Exit codes: 0 success, 1 failed assertion (`mp --oracle` mismatch,
`bench --assert-realtime`) or a stdout whose reader closed it mid-write
(click's broken-pipe rule: nothing is printed), 2 usage or data errors. The
command group is the one place that maps errors to exit 2: every DataError,
ValueError or OSError a command meets prints `error: <message>` on stderr
and exits 2, so commands raise rather than catch. Config files use
`key = value` lines with dataclass field names; explicit flags win over the
file, the file wins over defaults. `evaluate` reports the median real-time
factor of its one replay per recording; `bench --runs` replays one recording
repeatedly.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import dataset as ds
from .detectors import (
    NaiveDetector,
    NaiveDetectorConfig,
    StepGatedDetector,
    StepSystemConfig,
    dump_jsonl,
    replay,
)
from .errors import DataError
from .evaluation import (
    evaluate_recordings,
    real_time_factor,
    report_to_dict,
    write_earliness_csv,
    write_f1_csv,
    write_roc_csv,
)
from .mp import brute_force_mp, matrix_profile_self
from .signal import (
    DEFAULT_ENVELOPE_MS,
    SignalSelector,
    envelope_window_samples,
)
from .steps import (
    DEFAULT_MIN_STEP_MS,
    DEFAULT_ONSET_MS,
    DEFAULT_RELEASE_MS,
    DEFAULT_THRESHOLD_FRACTION,
    StepDetector,
    segment_series,
)

DEFAULT_SIGNAL = str(SignalSelector())


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(rows: list[str], out, what: str) -> None:
    """Print rows, a header line and its records, or write them to the file
    out and say how many of what it holds. Printing writes stdout's binary
    layer and retries short writes, which an unbuffered stdout
    (PYTHONUNBUFFERED) returns when its reader closes it: the next write then
    raises BrokenPipeError, as a buffered stdout does."""
    text = "\n".join(rows) + "\n"
    if out is None:
        sys.stdout.flush()
        data = memoryview(text.encode())
        while data:
            data = data[sys.stdout.buffer.write(data) :]
        sys.stdout.buffer.flush()
    else:
        Path(out).write_text(text)
        click.echo(f"wrote {out} ({len(rows) - 1} {what})")


def _settings(cls, config_path, flags: dict, exclude=()) -> dict:
    """Keyword arguments for the config dataclass cls, one per field but
    those in exclude: the dataclass default, overridden by config_path's
    `key = value` lines, overridden by the flag of the same name unless that
    is None. A SignalSelector stays text, as the file and the flags give it.
    A config file that cannot be read, decoded or parsed raises a DataError
    that names it."""
    base = cls()
    merged = {
        f.name: getattr(base, f.name) for f in dataclasses.fields(cls) if f.name not in exclude
    }
    if "signal" in merged:
        merged["signal"] = str(merged["signal"])
    if config_path is not None:
        try:
            merged.update(ds.parse_config(Path(config_path).read_text(), merged))
        except (DataError, OSError, UnicodeDecodeError) as exc:
            raise DataError(f"{config_path}: {exc}") from exc
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


class _Commands(click.Group):
    """The command group and the CLI's one error boundary: a DataError,
    ValueError or OSError that a command raises prints `error: <message>`
    and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # stdout's reader has gone, as under `| head`: click exits 1 quietly
        except (ValueError, OSError) as exc:  # a DataError is a ValueError
            _fail(str(exc))


@click.group(cls=_Commands)
def main():
    """Gait anomaly detection over streaming matrix profiles."""


# -- generate ---------------------------------------------------------------


@main.command()
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False))
@click.option("--normal", type=int, default=None, help="Number of normal steps.")
@click.option("--anomalous", type=int, default=None, help="Number of anomalous steps.")
@click.option("--position", default=None, help="Anomaly run position (a step index), or 'auto'.")
@click.option("--kind", type=click.Choice(ds.ANOMALY_KINDS), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--rate", type=float, default=None, help="Sample rate in Hz.")
@click.option("--period", type=float, default=None, help="Step period in seconds.")
@click.option("--noise", type=float, default=None, help="Sensor noise sigma.")
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
)
def generate(out, normal, anomalous, position, kind, seed, rate, period, noise, config_path):
    """Write a synthetic recording plus exact ground-truth annotations."""
    settings = _settings(ds.SynthConfig, config_path, {
        "n_normal_steps": normal,
        "n_anomalous_steps": anomalous,
        "anomaly_kind": kind,
        "rng_seed": seed,
        "sample_rate_hz": rate,
        "step_period_s": period,
        "noise_std": noise,
    })
    # set after the file: 'auto' reads as None, which must still override
    if position is not None:
        try:
            settings["anomaly_position"] = ds.parse_value(position, None)
        except ValueError:
            _fail(f"--position: expected an integer, none or auto, got {position!r}")
    cfg = ds.SynthConfig(**settings)
    recording, truth = ds.generate(cfg)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds.save_recording(recording, out_dir / "recording.csv")
    ds.save_annotations(truth, out_dir / "annotations.csv")
    click.echo(f"seed {cfg.rng_seed}")
    click.echo(f"wrote {out_dir / 'recording.csv'}")
    click.echo(f"wrote {out_dir / 'annotations.csv'}")


# -- segment ----------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@click.option("--signal", default=DEFAULT_SIGNAL, show_default=True)
@click.option("--envelope-ms", type=float, default=DEFAULT_ENVELOPE_MS, show_default=True)
@click.option(
    "--threshold-fraction",
    type=float,
    default=DEFAULT_THRESHOLD_FRACTION,
    show_default=True,
)
@click.option("--onset-ms", type=float, default=DEFAULT_ONSET_MS, show_default=True)
@click.option("--release-ms", type=float, default=DEFAULT_RELEASE_MS, show_default=True)
@click.option("--min-step-ms", type=float, default=DEFAULT_MIN_STEP_MS, show_default=True)
def segment(recording, out, signal, envelope_ms, threshold_fraction, onset_ms, release_ms, min_step_ms):
    """Detect step boundaries in a recording; emits start,end sample pairs."""
    rec = ds.load_recording(recording)
    series = rec.project(SignalSelector.parse(signal))
    window = envelope_window_samples(envelope_ms, rec.sample_rate_hz)
    det = StepDetector(
        rec.sample_rate_hz,
        threshold_fraction=threshold_fraction,
        onset_ms=onset_ms,
        release_ms=release_ms,
        min_step_ms=min_step_ms,
    )
    steps, _ = segment_series(series.values, window, det)
    _emit(["start,end"] + [f"{s},{e}" for s, e in steps], out, "segments")


# -- mp ---------------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("-m", "--window", "m", type=int, required=True, help="Subsequence length.")
@click.option("--exclusion", type=int, default=None, help="Self-match exclusion radius.")
@click.option("--signal", default=DEFAULT_SIGNAL, show_default=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@click.option("--oracle", is_flag=True, help="Cross-check against the brute-force path.")
def mp(recording, m, exclusion, signal, out, oracle):
    """Self-join matrix profile of the selected channel."""
    rec = ds.load_recording(recording)
    series = rec.project(SignalSelector.parse(signal))
    result = matrix_profile_self(series.values, m, exclusion=exclusion)
    rows = ["index,profile,nn_index"] + [
        f"{i},{p:.10g},{j}" for i, (p, j) in enumerate(zip(result.profile, result.indices))
    ]
    _emit(rows, out, "rows")
    if oracle:
        ref = brute_force_mp(series.values, m, exclusion=exclusion)
        finite = np.isfinite(ref.profile)
        ok = np.array_equal(finite, np.isfinite(result.profile)) and np.allclose(
            result.profile[finite], ref.profile[finite], rtol=1e-9, atol=1e-9
        )
        if not ok:
            worst = float(np.max(np.abs(result.profile[finite] - ref.profile[finite])))
            click.echo(f"oracle mismatch: max abs deviation {worst:.3e}", err=True)
            sys.exit(1)
        click.echo("oracle ok")


# -- detect -----------------------------------------------------------------

# each mode's config dataclass; its config file sets every field but the
# sample rate, which the recording fixes
_MODES = {"step": StepSystemConfig, "naive": NaiveDetectorConfig}


def _detector(mode: str, rate: float, config_path=None, **flags):
    """A fresh detector for mode at rate, its config built by _settings. A
    flag set for a field the mode lacks is a usage error."""
    cls = _MODES[mode]
    names = {f.name for f in dataclasses.fields(cls)}
    for key, value in flags.items():
        if value is not None and key not in names:
            _fail(f"--{key.replace('_', '-')} does not apply to {mode} mode")
    settings = _settings(cls, config_path, flags, exclude=("sample_rate_hz",))
    settings["signal"] = SignalSelector.parse(settings["signal"])
    if mode == "step":
        return StepGatedDetector(StepSystemConfig(sample_rate_hz=rate, **settings))
    return NaiveDetector(NaiveDetectorConfig(**settings), rate)


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("-o", "--alarms", "alarms_path", default="alarms.jsonl", show_default=True)
@click.option("--emit-trace", "trace_path", type=click.Path(dir_okay=False), default=None)
@click.option("--threshold", type=float, default=None, help="Discord score threshold.")
@click.option("--signal", default=None, help="Channel to analyze, e.g. gyro:linf.")
@click.option("--history-len", type=float, default=None, help="History length, seconds.")
@click.option("--prime", "prime_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--frame-len", type=int, default=None, help="Frame length, samples (naive mode).")
@click.option("--hop", type=int, default=None, help="Evaluation stride, samples (naive mode).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
def detect(recording, mode, alarms_path, trace_path, threshold, signal, history_len, prime_path, frame_len, hop, config_path):
    """Replay a recording through a detector and write the alarms raised."""
    rec = ds.load_recording(recording)
    if mode == "naive" and prime_path is not None:
        _fail("--prime does not apply to naive mode")
    detector = _detector(
        mode, rec.sample_rate_hz, config_path, discord_threshold=threshold,
        history_len_s=history_len, signal=signal, frame_len=frame_len, hop=hop,
    )
    if prime_path is not None:
        detector.prime_history(ds.load_recording(prime_path).project(detector.cfg.signal))
    result = replay(detector, rec)
    dump_jsonl(result.alarms, alarms_path)
    if trace_path is not None:
        dump_jsonl(result.trace, trace_path)
    click.echo(f"{len(result.alarms)} alarms -> {alarms_path}")
    if trace_path is not None:
        click.echo(f"{len(result.trace)} trace rows -> {trace_path}")


# -- evaluate ---------------------------------------------------------------


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, file_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("--signal", default=DEFAULT_SIGNAL, show_default=True)
@click.option(
    "--history-len",
    "history_lens",
    type=float,
    multiple=True,
    help="History length in seconds; repeat for several ROC families.",
)
def evaluate(inputs, out, mode, signal, history_lens):
    """Score recording directories (recording.csv + annotations.csv each) at
    101 thresholds from 1 down to 0."""
    SignalSelector.parse(signal)  # a bad selector fails before any recording loads
    folders = [Path(d) for d in inputs]
    names = [f.name for f in folders]
    ids = names if len(set(names)) == len(names) else [str(f) for f in folders]
    pairs = []
    for folder, rid in zip(folders, ids):
        rec = ds.load_recording(folder / "recording.csv", meta=ds.RecordingMeta(recording_id=rid))
        truth = ds.load_annotations(folder / "annotations.csv")
        if truth and truth[-1].end > rec.n:
            _fail(f"{folder}: annotations extend past the recording")
        pairs.append((rec, truth))
    rates = sorted({rec.sample_rate_hz for rec, _ in pairs})
    rate = rates[0]
    if rates[-1] - rate >= ds.UNIFORMITY_TOL * rate:
        _fail(f"recordings disagree on sample rate: {rates}")
    lens = sorted(set(history_lens)) or [None]

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    families = []
    for hl in lens:
        def make_detector(hl=hl):
            return _detector(mode, rate, history_len_s=hl, signal=signal)
        history_len_s = hl if hl is not None else _MODES[mode].history_len_s
        report = evaluate_recordings(pairs, make_detector)
        suffix = "" if len(lens) == 1 else f"-h{history_len_s:g}"
        write_roc_csv(report.roc, out_dir / f"roc{suffix}.csv")
        write_f1_csv(report.f1_by_threshold, out_dir / f"f1_by_threshold{suffix}.csv")
        write_earliness_csv(report.per_recording, out_dir / f"earliness{suffix}.csv")
        families.append({"history_len_s": history_len_s, **report_to_dict(report)})
        click.echo(
            f"history {history_len_s:g}s: auc {report.auc:.4f} "
            f"f1 {report.aggregate_f1:.4f} at threshold {report.optimal_threshold:.2f}"
        )

    text = json.dumps({"families": families}, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(text + "\n")
    click.echo(f"wrote {out_dir / 'report.json'}")


# -- bench ------------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("--signal", default=DEFAULT_SIGNAL, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--assert-realtime", is_flag=True, help="Exit 1 unless faster than realtime.")
def bench(recording, mode, signal, runs, assert_realtime):
    """Measure the real-time factor of a full replay."""
    rec = ds.load_recording(recording)

    def make_detector():
        return _detector(mode, rec.sample_rate_hz, signal=signal)

    rtf = real_time_factor(make_detector, rec, runs=runs)
    click.echo(f"rtf {rtf:.4g}")
    if assert_realtime and rtf >= 1.0:
        sys.exit(1)


if __name__ == "__main__":
    main()
