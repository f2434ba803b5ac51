"""Command line front end: synthesis, segmentation, profiles, detection, scoring.

Exit codes: 0 success, 1 failed assertion (oracle mismatch, realtime check),
2 usage or data errors. Config files use `key = value` lines with dataclass
field names; explicit flags win over the file, the file wins over defaults.
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
    threshold_grid,
    write_earliness_csv,
    write_f1_csv,
    write_roc_csv,
)
from .mp import brute_force_mp, matrix_profile_self
from .signal import DEFAULT_ENVELOPE_MS, SignalSelector, envelope
from .steps import (
    DEFAULT_MIN_STEP_MS,
    DEFAULT_ONSET_MS,
    DEFAULT_RELEASE_MS,
    DEFAULT_THRESHOLD_FRACTION,
    StepDetector,
)


def _fail(message: str, code: int = 2) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_recording(path) -> ds.Recording:
    try:
        return ds.load_recording(path)
    except (DataError, OSError) as exc:
        _fail(str(exc))


def _parse_signal(text: str) -> SignalSelector:
    try:
        return SignalSelector.parse(text)
    except ValueError as exc:
        _fail(str(exc))


def _config(path, defaults: dict, flags: dict) -> dict:
    """Defaults, overridden by the config file, overridden by the given flags."""
    merged = dict(defaults)
    if path is not None:
        try:
            merged.update(ds.parse_config(Path(path).read_text(), defaults))
        except (DataError, OSError) as exc:
            _fail(f"{path}: {exc}")
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


@click.group()
def main():
    """Gait anomaly detection over streaming matrix profiles."""


# -- generate ---------------------------------------------------------------


@main.command()
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False))
@click.option("--normal", type=int, default=None, help="Number of normal steps.")
@click.option("--anomalous", type=int, default=None, help="Number of anomalous steps.")
@click.option("--position", default=None, help="Anomaly run position, or 'auto'.")
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
    cfg = ds.SynthConfig()
    if config_path:
        try:
            cfg = ds.synth_config_from_file(config_path, base=cfg)
        except (DataError, ValueError, OSError) as exc:
            _fail(f"{config_path}: {exc}")
    overrides = {
        "n_normal_steps": normal,
        "n_anomalous_steps": anomalous,
        "anomaly_kind": kind,
        "rng_seed": seed,
        "sample_rate_hz": rate,
        "step_period_s": period,
        "noise_std": noise,
    }
    if position is not None:
        overrides["anomaly_position"] = (
            None if position in ("none", "auto") else int(position)
        )
    try:
        cfg = dataclasses.replace(
            cfg, **{k: v for k, v in overrides.items() if v is not None}
        )
        recording, truth = ds.generate(cfg)
    except (DataError, ValueError) as exc:
        _fail(str(exc))
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        ds.save_recording(recording, out_dir / "recording.csv")
        ds.save_annotations(truth, out_dir / "annotations.csv")
    except OSError as exc:
        _fail(str(exc))
    click.echo(f"seed {cfg.rng_seed}")
    click.echo(f"wrote {out_dir / 'recording.csv'}")
    click.echo(f"wrote {out_dir / 'annotations.csv'}")


# -- segment ----------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@click.option("--signal", default="gyro:linf", show_default=True)
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
    rec = _load_recording(recording)
    series = rec.project(_parse_signal(signal))
    try:
        env = envelope(series, envelope_ms)
        det = StepDetector(
            rec.sample_rate_hz,
            threshold_fraction=threshold_fraction,
            onset_ms=onset_ms,
            release_ms=release_ms,
            min_step_ms=min_step_ms,
        )
    except ValueError as exc:
        _fail(str(exc))
    det.recompute_threshold(env.values)
    rows = ["start,end"] + [f"{s.start},{s.end}" for s in det.detect_boundaries(env.values)]
    text = "\n".join(rows) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        click.echo(f"wrote {out} ({len(rows) - 1} segments)")


# -- mp ---------------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("-m", "--window", "m", type=int, required=True, help="Subsequence length.")
@click.option("--exclusion", type=int, default=None, help="Self-match exclusion radius.")
@click.option("--signal", default="gyro:linf", show_default=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@click.option("--oracle", is_flag=True, help="Cross-check against the brute-force path.")
def mp(recording, m, exclusion, signal, out, oracle):
    """Self-join matrix profile of the selected channel."""
    rec = _load_recording(recording)
    series = rec.project(_parse_signal(signal))
    try:
        result = matrix_profile_self(series.values, m, exclusion=exclusion)
    except (ValueError, DataError) as exc:
        _fail(str(exc))
    rows = ["index,profile,nn_index"] + [
        f"{i},{p:.10g},{j}" for i, (p, j) in enumerate(zip(result.profile, result.indices))
    ]
    text = "\n".join(rows) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        click.echo(f"wrote {out} ({len(rows) - 1} rows)")
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

_STEP_DEFAULTS = {
    "discord_threshold": StepSystemConfig.discord_threshold,
    "history_len_s": StepSystemConfig.history_len_s,
    "min_query_len_ms": StepSystemConfig.min_query_len_ms,
    "envelope_window_ms": StepSystemConfig.envelope_window_ms,
    "bootstrap_horizon_s": StepSystemConfig.bootstrap_horizon_s,
    "admission_guard": StepSystemConfig.admission_guard,
    "signal": "gyro:linf",
}

_NAIVE_DEFAULTS = {
    "discord_threshold": NaiveDetectorConfig.discord_threshold,
    "frame_len": NaiveDetectorConfig.frame_len,
    "hop": NaiveDetectorConfig.hop,
    "history_len": NaiveDetectorConfig.history_len,
    "overlap_fraction": NaiveDetectorConfig.overlap_fraction,
    "signal": "gyro:linf",
}


def _build_step_config(rate: float, merged: dict) -> StepSystemConfig:
    return StepSystemConfig(
        sample_rate_hz=rate,
        signal=_parse_signal(merged["signal"]),
        discord_threshold=merged["discord_threshold"],
        history_len_s=merged["history_len_s"],
        min_query_len_ms=merged["min_query_len_ms"],
        envelope_window_ms=merged["envelope_window_ms"],
        bootstrap_horizon_s=merged["bootstrap_horizon_s"],
        admission_guard=merged["admission_guard"],
    )


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("-o", "--alarms", "alarms_path", default="alarms.jsonl", show_default=True)
@click.option("--emit-trace", "trace_path", type=click.Path(dir_okay=False), default=None)
@click.option("--threshold", type=float, default=None, help="Discord score threshold.")
@click.option("--signal", default=None, help="Channel to analyze, e.g. gyro:linf.")
@click.option(
    "--history-len",
    type=float,
    default=None,
    help="History length, seconds (a naive config file's history_len counts samples).",
)
@click.option("--prime", "prime_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--frame-len", type=int, default=None, help="Frame length, samples (naive mode).")
@click.option("--hop", type=int, default=None, help="Evaluation stride, samples (naive mode).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
def detect(recording, mode, alarms_path, trace_path, threshold, signal, history_len, prime_path, frame_len, hop, config_path):
    """Replay a recording through a detector and write the alarms raised."""
    rec = _load_recording(recording)
    try:
        if mode == "step":
            merged = _config(
                config_path,
                _STEP_DEFAULTS,
                {
                    "discord_threshold": threshold,
                    "history_len_s": history_len,
                    "signal": signal,
                },
            )
            detector = StepGatedDetector(_build_step_config(rec.sample_rate_hz, merged))
            if prime_path is not None:
                ref = ds.load_recording(prime_path).project(
                    _parse_signal(merged["signal"])
                )
                detector.prime_history(ref)
            result = replay(detector, rec)
        else:
            if prime_path is not None:
                _fail("--prime applies to step mode only")
            merged = _config(
                config_path,
                _NAIVE_DEFAULTS,
                {
                    "discord_threshold": threshold,
                    "frame_len": frame_len,
                    "hop": hop,
                    # the naive config counts History in samples
                    "history_len": None
                    if history_len is None
                    else round(history_len * rec.sample_rate_hz),
                    "signal": signal,
                },
            )
            detector = NaiveDetector(
                NaiveDetectorConfig(
                    frame_len=merged["frame_len"],
                    hop=merged["hop"],
                    history_len=merged["history_len"],
                    overlap_fraction=merged["overlap_fraction"],
                    discord_threshold=merged["discord_threshold"],
                ),
                rec.sample_rate_hz,
            )
            result = replay(detector, rec, signal=_parse_signal(merged["signal"]))
    except (DataError, ValueError) as exc:
        _fail(str(exc))
    try:
        dump_jsonl(result.alarms, alarms_path)
        if trace_path is not None:
            dump_jsonl(result.trace, trace_path)
    except OSError as exc:
        _fail(str(exc))
    click.echo(f"{len(result.alarms)} alarms -> {alarms_path}")
    if trace_path is not None:
        click.echo(f"{len(result.trace)} trace rows -> {trace_path}")


# -- evaluate ---------------------------------------------------------------


@main.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, file_okay=False))
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("--signal", default="gyro:linf", show_default=True)
@click.option(
    "--history-len",
    "history_lens",
    type=float,
    multiple=True,
    help="History length in seconds; repeat for several ROC families.",
)
@click.option("--grid-points", type=click.IntRange(min=2), default=101, show_default=True)
@click.option("--rtf-runs", type=click.IntRange(min=1), default=5, show_default=True)
def evaluate(inputs, out, mode, signal, history_lens, grid_points, rtf_runs):
    """Score recording directories (recording.csv + annotations.csv each)."""
    sel = _parse_signal(signal)
    folders = [Path(d) for d in inputs]
    names = [f.name for f in folders]
    ids = names if len(set(names)) == len(names) else [str(f) for f in folders]
    pairs = []
    for folder, rid in zip(folders, ids):
        try:
            rec = ds.load_recording(
                folder / "recording.csv", meta=ds.RecordingMeta(recording_id=rid)
            )
            truth = ds.load_annotations(folder / "annotations.csv")
        except (DataError, OSError) as exc:
            _fail(str(exc))
        if truth and truth[-1].end > rec.n:
            _fail(f"{folder}: annotations extend past the recording")
        pairs.append((rec, truth))
    rates = {rec.sample_rate_hz for rec, _ in pairs}
    if len(rates) != 1:
        _fail(f"recordings disagree on sample rate: {sorted(rates)}")
    rate = rates.pop()

    if mode == "naive" and history_lens:
        _fail("--history-len families apply to step mode only")
    lens = sorted(set(history_lens)) or [StepSystemConfig.history_len_s]

    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(str(exc))

    families = []
    grid = threshold_grid(grid_points)
    for hl in lens:
        if mode == "step":
            def make_detector(hl=hl):
                return StepGatedDetector(
                    StepSystemConfig(sample_rate_hz=rate, signal=sel, history_len_s=hl)
                )
            run_signal = None
        else:
            def make_detector():
                return NaiveDetector(NaiveDetectorConfig(), rate)
            run_signal = sel
        try:
            report = evaluate_recordings(
                pairs,
                make_detector,
                thresholds=grid,
                signal=run_signal,
                rtf_runs=rtf_runs,
            )
        except (DataError, ValueError) as exc:
            _fail(str(exc))
        suffix = "" if len(lens) == 1 else f"-h{hl:g}"
        write_roc_csv(report.roc, out_dir / f"roc{suffix}.csv")
        write_f1_csv(report.f1_by_threshold, out_dir / f"f1_by_threshold{suffix}.csv")
        write_earliness_csv(report.per_recording, out_dir / f"earliness{suffix}.csv")
        families.append({"history_len_s": hl, **report_to_dict(report)})
        click.echo(
            f"history {hl:g}s: auc {report.auc:.4f} "
            f"f1 {report.aggregate_f1:.4f} at threshold {report.optimal_threshold:.2f}"
        )

    with open(out_dir / "report.json", "w") as f:
        json.dump({"families": families}, f, indent=2, sort_keys=True)
        f.write("\n")
    click.echo(f"wrote {out_dir / 'report.json'}")


# -- bench ------------------------------------------------------------------


@main.command()
@click.argument("recording", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["step", "naive"]), default="step", show_default=True)
@click.option("--signal", default="gyro:linf", show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--assert-realtime", is_flag=True, help="Exit 1 unless faster than realtime.")
def bench(recording, mode, signal, runs, assert_realtime):
    """Measure the real-time factor of a full replay."""
    rec = _load_recording(recording)
    sel = _parse_signal(signal)
    if mode == "step":
        def make_detector():
            return StepGatedDetector(
                StepSystemConfig(sample_rate_hz=rec.sample_rate_hz, signal=sel)
            )
        run_signal = None
    else:
        def make_detector():
            return NaiveDetector(NaiveDetectorConfig(), rec.sample_rate_hz)
        run_signal = sel
    rtf = real_time_factor(make_detector, rec, runs=runs, signal=run_signal)
    click.echo(f"rtf {rtf:.4f}")
    if assert_realtime and rtf >= 1.0:
        sys.exit(1)


if __name__ == "__main__":
    main()
