"""Recording and annotation file formats plus a synthetic gait generator.

Recordings are 6-channel IMU CSVs (time, 3-axis accel, 3-axis gyro), held
as read-only column arrays; iter_samples streams them as SensorSamples a
block of rows at a time, checking each block once rather than each reading.
Annotations label half-open sample ranges as normal ("ok") or anomalous
("ab") steps. The generator synthesizes walking bouts from one fixed smooth
step template (the STEP_* constants) with seeded jitter and injects one of
three anomaly kinds, returning exact ground-truth segments alongside the
samples. Each step template is computed once per sample rate and kind in a
process; a rate must put at least one reading in the 0.45 s step. A step
starts up to JITTER_BOUND_S off its beat, so the step period must hold the
longest step laid out plus twice that bound.
parse_config reads the `key = value` config files of the CLI.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .mp import TimeSeries
from .signal import SensorSample, SignalSelector

LABEL_OK = "ok"
LABEL_AB = "ab"
KNOWN_LABELS = (LABEL_OK, LABEL_AB)

ANOMALY_KINDS = ("amplitude-scaled", "time-warped", "shape-replaced")

RECORDING_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
ANNOTATION_HEADER = ["start", "end", "label"]

# Sampling is considered uniform when every interval is within 1% of 1/rate.
UNIFORMITY_TOL = 0.01

# iter_samples checks and converts this many rows at a time to Python
# floats: large enough that the NumPy calls per block are cheap per reading,
# small enough that the converted lists stay a few hundred kB even on an
# hours-long file.
INGEST_BLOCK = 1024


@dataclass(frozen=True)
class RecordingMeta:
    recording_id: str = "r000"


@dataclass(frozen=True)
class LabeledSegment:
    """Half-open sample range [start, end) tagged ok or ab."""

    start: int
    end: int
    label: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad segment [{self.start}, {self.end})")
        if self.label not in KNOWN_LABELS:
            raise ValueError(f"unknown label {self.label!r}")

    @property
    def is_anomalous(self) -> bool:
        return self.label == LABEL_AB


def validate_segments(segments: list[LabeledSegment]) -> list[LabeledSegment]:
    for a, b in zip(segments, segments[1:]):
        if b.start < a.end:
            raise DataError(f"segments overlap: [{a.start},{a.end}) and [{b.start},{b.end})")
    return segments


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError("recording contains non-finite values")


class Recording:
    """Uniformly sampled 6-dof IMU recording held as column arrays."""

    def __init__(self, t, accel, gyro, sample_rate_hz=None, meta: RecordingMeta = RecordingMeta()):
        t = np.asarray(t, dtype=np.float64)
        accel = np.asarray(accel, dtype=np.float64)
        gyro = np.asarray(gyro, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise DataError("recording must contain at least one sample")
        if accel.shape != (t.size, 3) or gyro.shape != (t.size, 3):
            raise ValueError("accel and gyro must be (n, 3) arrays matching t")
        _check_finite(t, accel, gyro)
        if sample_rate_hz is None:
            if t.size < 2:
                raise DataError("cannot infer sample rate from a single sample")
            period = float(np.median(np.diff(t)))
            if not period > 0:
                raise DataError(f"cannot infer sample rate from a median period of {period:g} s")
            sample_rate_hz = 1.0 / period
        if not (0 < sample_rate_hz < math.inf):
            raise ValueError("sample_rate_hz must be positive and finite")
        if t.size >= 2:
            dt = np.diff(t)
            period = 1.0 / sample_rate_hz
            bad = np.abs(dt - period) >= UNIFORMITY_TOL * period
            if bad.any():
                k = int(np.argmax(bad))
                raise DataError(
                    f"non-uniform sampling at sample {k + 1}: dt={dt[k]:.6g}, expected {period:.6g}"
                )
        for arr in (t, accel, gyro):
            arr.flags.writeable = False
        self.t = t
        self.accel = accel
        self.gyro = gyro
        self.sample_rate_hz = float(sample_rate_hz)
        self.meta = meta

    @property
    def n(self) -> int:
        return self.t.size

    @property
    def duration_s(self) -> float:
        return self.n / self.sample_rate_hz

    def iter_samples(self):
        """Yield each row as a SensorSample, converting INGEST_BLOCK rows at a time.

        Each block is checked for non-finite values once, in NumPy, and its
        samples are then built as bare tuples without SensorSample's
        per-reading checks. __init__ checked the same rows, but the arrays can
        be the caller's, made read-only there and writable again since.
        """
        new = partial(tuple.__new__, SensorSample)
        for start in range(0, self.n, INGEST_BLOCK):
            rows = slice(start, start + INGEST_BLOCK)
            t, accel, gyro = self.t[rows], self.accel[rows], self.gyro[rows]
            _check_finite(t, accel, gyro)
            yield from map(new, zip(t.tolist(), zip(*accel.T.tolist()), zip(*gyro.T.tolist())))

    @property
    def samples(self) -> list[SensorSample]:
        return list(self.iter_samples())

    def project(self, sel: SignalSelector) -> TimeSeries:
        """Vectorized equivalent of projecting each sample in turn."""
        arr = self.accel if sel.source == "accel" else self.gyro
        if sel.channel in ("x", "y", "z"):
            out = arr[:, "xyz".index(sel.channel)]
        elif sel.channel == "l1":
            out = np.abs(arr).sum(axis=1)
        elif sel.channel == "l2":
            out = np.sqrt((arr * arr).sum(axis=1))
        else:
            out = np.abs(arr).max(axis=1)
        return TimeSeries(out, self.sample_rate_hz)


# -- persistence -----------------------------------------------------------


def save_recording(recording: Recording, path) -> None:
    data = np.column_stack([recording.t, recording.accel, recording.gyro])
    with open(path, "w", newline="") as f:
        f.write(",".join(RECORDING_HEADER) + "\n")
        np.savetxt(f, data, fmt="%.12g", delimiter=",")


def _csv_rows(path, header: list[str]):
    """Yield (row number, fields) for each non-blank row after the header of
    the CSV file at path. A header other than header, and bytes that do not
    decode, raise a DataError naming the file."""
    with open(path, newline="") as f:
        try:
            reader = csv.reader(f)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise DataError(f"{path}: expected header {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if row:
                    yield lineno, row
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc


def load_recording(path, meta: RecordingMeta | None = None) -> Recording:
    rows = []
    for lineno, row in _csv_rows(path, RECORDING_HEADER):
        if len(row) != 7:
            raise DataError(f"{path}: row {lineno}: expected 7 fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"{path}: row {lineno}: non-finite value")
        if rows and vals[0] <= rows[-1][0]:
            raise DataError(f"{path}: row {lineno}: non-monotonic t")
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no samples")
    data = np.array(rows)
    if meta is None:
        meta = RecordingMeta(recording_id=Path(path).stem)
    try:
        return Recording(data[:, 0], data[:, 1:4], data[:, 4:7], meta=meta)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_annotations(segments: list[LabeledSegment], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(ANNOTATION_HEADER) + "\n")
        for seg in segments:
            f.write(f"{seg.start},{seg.end},{seg.label}\n")


def load_annotations(path) -> list[LabeledSegment]:
    segments = []
    for lineno, row in _csv_rows(path, ANNOTATION_HEADER):
        if len(row) != 3:
            raise DataError(f"{path}: row {lineno}: expected 3 fields")
        try:
            seg = LabeledSegment(int(row[0]), int(row[1]), row[2].strip())
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
        segments.append(seg)
    try:
        return validate_segments(segments)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# -- synthesis -------------------------------------------------------------

# The normal step waveform: peak gyro rate (deg/s), duration (s) and peak
# acceleration (m/s^2) at unit template scale.
STEP_AMPLITUDE_DPS = 120.0
STEP_DURATION_S = 0.45
STEP_ACCEL_AMPLITUDE = 4.0
# a time-warped step lasts this many normal steps
TIME_WARP = 1.6
# a step starts N(0, STEP_JITTER_S) s off its period's beat, clipped at 5 sigma
STEP_JITTER_S = 0.01
JITTER_BOUND_S = 5 * STEP_JITTER_S


@dataclass(frozen=True)
class SynthConfig:
    sample_rate_hz: float = 100.0
    n_normal_steps: int = 10
    n_anomalous_steps: int = 2
    anomaly_position: int | None = None  # step index where the ab block starts
    step_period_s: float = 1.0
    anomaly_kind: str = "shape-replaced"
    noise_std: float = 2.0
    rng_seed: int = 0
    lead_in_s: float = 2.0
    tail_s: float = 1.0

    def __post_init__(self):
        if self.n_normal_steps < 0 or self.n_anomalous_steps < 0:
            raise ValueError("step counts must be non-negative")
        if not (0 <= self.noise_std < math.inf):
            raise ValueError("noise_std must be non-negative and finite")
        if self.anomaly_kind not in ANOMALY_KINDS:
            raise ValueError(f"anomaly_kind must be one of {ANOMALY_KINDS}")
        if not (0 < self.sample_rate_hz < math.inf and 0 < self.step_period_s < math.inf):
            raise ValueError("sample_rate_hz and step_period_s must be positive and finite")
        if round(STEP_DURATION_S * self.sample_rate_hz) < 1:
            raise ValueError(
                f"sample_rate_hz {self.sample_rate_hz} puts no reading in a "
                f"{STEP_DURATION_S} s step"
            )
        if not (0 <= self.lead_in_s < math.inf and 0 <= self.tail_s < math.inf):
            raise ValueError("lead_in_s and tail_s must be non-negative and finite")
        # consecutive steps must not overlap however their starts jitter
        fs = self.sample_rate_hz
        kinds = [None] + [self.anomaly_kind] * (self.n_anomalous_steps > 0)
        need = max(_step_len(fs, k) for k in kinds) + 2 * round(JITTER_BOUND_S * fs)
        if round(self.step_period_s * fs) < need:
            raise ValueError(
                f"step_period_s {self.step_period_s:g} is under {need / fs:g} s: the longest "
                f"step laid out plus twice the {JITTER_BOUND_S:g} s bound on start jitter"
            )

    def resolved_anomaly_position(self) -> int:
        pos = self.anomaly_position
        if pos is None:
            pos = self.n_normal_steps // 2 + self.n_normal_steps % 2
        if not (0 <= pos <= self.n_normal_steps):
            raise ValueError(
                f"anomaly_position {pos} out of range 0..{self.n_normal_steps}"
            )
        return pos


def _burst(tau, center, width, cycles, phase=0.0, a=1.0):
    gauss = np.exp(-0.5 * ((tau - center) / width) ** 2)
    return a * gauss * np.sin(2 * np.pi * cycles * tau + phase)


def _normal_channels(tau):
    gx = _burst(tau, 0.42, 0.20, 1.3) + _burst(tau, 0.70, 0.07, 4.0, 0.9, 0.5)
    gy = _burst(tau, 0.50, 0.22, 1.0, 0.5, 0.6)
    gz = _burst(tau, 0.55, 0.25, 0.8, 1.1, 0.35)
    return np.stack([gx, gy, gz], axis=1)


def _tremor_channels(tau):
    # two wide-set ripple bursts, oscillating in phase on all three axes so
    # the per-sample max stays oscillatory instead of smoothing into a hump
    # like the normal swing-plus-impact contour does
    shape = np.exp(-0.5 * ((tau - 0.24) / 0.11) ** 2) + np.exp(
        -0.5 * ((tau - 0.76) / 0.11) ** 2
    )
    osc = shape * np.sin(2 * np.pi * 7.0 * tau)
    return np.stack([osc, 0.85 * osc, 0.6 * osc], axis=1)


def _accel_channels(tau, scale):
    ax = _burst(tau, 0.70, 0.06, 5.0, 0.3, 1.0)
    ay = _burst(tau, 0.45, 0.20, 1.2, 0.8, 0.6)
    az = _burst(tau, 0.50, 0.22, 1.0, 1.6, 0.8)
    return scale * np.stack([ax, ay, az], axis=1)


def _step_len(sample_rate_hz: float, kind: str | None) -> int:
    """Readings in one step of the kind, normal for None."""
    warp = TIME_WARP if kind == "time-warped" else 1.0
    return round(warp * STEP_DURATION_S * sample_rate_hz)


@cache
def _step_template(sample_rate_hz: float, kind: str | None):
    """One step's read-only (gyro, accel) waveforms at unit template scale,
    normal for kind None; built once per sample rate and kind."""
    n = _step_len(sample_rate_hz, kind)
    tau = np.arange(n) / n
    if kind == "shape-replaced":
        gyro = _tremor_channels(tau)
    else:
        gyro = _normal_channels(tau)
    if kind == "amplitude-scaled":
        # hard drive into saturation: flattened peaks change the shape, which
        # pure rescaling would not (z-normalization removes linear gain)
        gyro = np.tanh(8.0 * gyro)
    gyro = gyro * STEP_AMPLITUDE_DPS
    accel = _accel_channels(tau, STEP_ACCEL_AMPLITUDE)
    gyro.flags.writeable = accel.flags.writeable = False
    return gyro, accel


def generate(config: SynthConfig) -> tuple[Recording, list[LabeledSegment]]:
    """Synthesize one walking bout; returns samples plus exact ground truth."""
    if config.n_normal_steps + config.n_anomalous_steps == 0:
        raise ValueError("zero steps requested: nothing to generate")
    pos = config.resolved_anomaly_position()
    labels = (
        [LABEL_OK] * pos
        + [LABEL_AB] * config.n_anomalous_steps
        + [LABEL_OK] * (config.n_normal_steps - pos)
    )

    rng = np.random.default_rng(config.rng_seed)
    fs = config.sample_rate_hz
    period = round(config.step_period_s * fs)
    lead = round(config.lead_in_s * fs)
    tail = round(config.tail_s * fs)

    cursor = lead
    step_data = []
    for label in labels:
        drawn = rng.normal(0.0, STEP_JITTER_S)
        jitter = int(round(min(max(drawn, -JITTER_BOUND_S), JITTER_BOUND_S) * fs))
        start = max(0, cursor + jitter)
        kind = config.anomaly_kind if label == LABEL_AB else None
        gyro, accel = _step_template(fs, kind)
        amp_jitter = rng.normal(1.0, 0.04)
        step_data.append((start, gyro * amp_jitter, accel * amp_jitter, label))
        cursor += period

    n_total = max(s + g.shape[0] for s, g, _, _ in step_data) + tail
    gyro = np.zeros((n_total, 3))
    accel = np.zeros((n_total, 3))
    segments = []
    for start, g, a, label in step_data:
        end = start + g.shape[0]
        gyro[start:end] += g
        accel[start:end] += a
        segments.append(LabeledSegment(start, end, label))
    validate_segments(segments)

    gyro += rng.normal(0.0, config.noise_std, size=gyro.shape)
    accel += rng.normal(0.0, 0.3 * config.noise_std, size=accel.shape)
    t = np.arange(n_total) / fs
    meta = RecordingMeta(recording_id=f"synth-{config.rng_seed:05d}")
    return Recording(t, accel, gyro, sample_rate_hz=fs, meta=meta), segments


# -- key = value config files ---------------------------------------------


def parse_value(text: str, default):
    """text as a value of default's type; for a default of None, an int, or
    None for none/auto. Raises ValueError when text does not parse."""
    if default is None:
        return None if text.lower() in ("none", "auto") else int(text)
    return type(default)(text)


def parse_config(text: str, defaults: dict) -> dict:
    """Parse 'key = value' lines into {key: value} for keys of defaults.

    '#' starts a comment; blank lines are ignored. Each value is read by
    parse_value against its key's default. Unknown keys and unparsable
    values raise DataError naming the line.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = parse_value(value, defaults[key])
        except ValueError:
            raise DataError(f"config line {lineno}: {key}: cannot parse {value!r}") from None
    return out

