"""Segment-level scoring of alarm streams: confusion counts, F1, ROC, earliness.

Granularity is per step segment, not per sample: an anomalous segment counts
as one true positive however many alarms land inside it, and an alarm that
falls outside every labeled segment counts as one false positive on its own.

The ROC machinery expects one detector pass per recording with the score
trace retained; thresholds are applied post hoc. alarms_from_trace and
match_alarms define the counts at one threshold. evaluate_recordings gets
the same counts at all DEFAULT_GRID_POINTS (101) thresholds of
threshold_grid, 1 down to 0 in steps of 0.01, in one pass over each step's
prefix-max records (every naive row is a record).
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import LabeledSegment, validate_segments
from .detectors import AlarmEvent, alarms_from_trace, replay

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


@dataclass(frozen=True)
class RocPoint:
    fpr: float
    tpr: float
    threshold: float


@dataclass(frozen=True)
class RecordingResult:
    recording_id: str
    counts: ConfusionCounts
    f1: float
    mean_earliness_s: float | None


@dataclass(frozen=True)
class EvaluationReport:
    per_recording: tuple[RecordingResult, ...]
    roc: tuple[RocPoint, ...]
    auc: float
    optimal_threshold: float
    aggregate_f1: float
    f1_by_threshold: tuple[tuple[float, float], ...]
    real_time_factor: float | None


def match_alarms(
    alarms: list[AlarmEvent], truth: list[LabeledSegment]
) -> ConfusionCounts:
    """Count segment-level outcomes for one recording.

    Each anomalous segment with at least one alarm inside it is a TP, else an
    FN; each normal segment with an alarm is an FP, else a TN. Every alarm
    outside all segments adds one more FP.
    """
    validate_segments(truth)
    idx = sorted(a.sample_index for a in alarms)
    tp = fp = fn = tn = 0
    covered = 0
    for seg in truth:
        lo = bisect.bisect_left(idx, seg.start)
        hi = bisect.bisect_left(idx, seg.end)
        hit = hi > lo
        covered += hi - lo
        if seg.is_anomalous:
            tp, fn = (tp + 1, fn) if hit else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if hit else (fp, tn + 1)
    fp += len(idx) - covered
    return ConfusionCounts(tp, fp, fn, tn)


def _sweep_counts(trace, truth: list[LabeledSegment], grid: np.ndarray) -> np.ndarray:
    """(tp, fp, fn, tn) of one recording at each threshold of grid, one row
    per threshold: row j equals
    match_alarms(alarms_from_trace(trace, grid[j], fs), truth).

    trace is one detector's, in push order, so sample_index never falls and
    a step's rows are contiguous; its rows are naive when step_ordinal is
    None. A step alarms at its first row above the threshold, which is
    always one of the step's strict prefix-max records; a record fires at
    theta when it is above theta and the step's previous record is not. A
    naive row is a record with no previous one, so it fires whenever it is
    above theta.
    """
    index, _, ordinal, _, score = tuple(zip(*trace)) or ((),) * 5
    index = np.array(index, dtype=np.int64)
    score = np.array(score, dtype=np.float64)
    prev = np.full(score.size, -np.inf)
    if score.size and ordinal[0] is not None:
        # score ranks offset by step, so one running max spans every step
        # yet never carries a score from one step into the next
        ordinal = np.array(ordinal)
        new_step = np.diff(ordinal, prepend=ordinal[0] - 1) != 0
        _, rank = np.unique(score, return_inverse=True)
        key = (np.cumsum(new_step) - 1) * score.size + rank
        # the running max rises exactly at each strict record
        record = np.diff(np.maximum.accumulate(key), prepend=-1) > 0
        index, score, new_step = index[record], score[record], new_step[record]
        prev = np.concatenate(([-np.inf], score[:-1]))
        prev[new_step] = -np.inf
    th = grid[:, None]
    fires = np.zeros((grid.size, score.size + 1), dtype=np.int32)
    np.cumsum((score > th) & (prev <= th), axis=1, out=fires[:, 1:])
    starts = np.searchsorted(index, [s.start for s in truth])
    ends = np.searchsorted(index, [s.end for s in truth])
    inside = fires[:, ends] - fires[:, starts]
    hit = inside > 0
    anomalous = np.array([s.is_anomalous for s in truth], dtype=bool)
    tp = hit[:, anomalous].sum(axis=1)
    normal_hits = hit[:, ~anomalous].sum(axis=1)
    fp = normal_hits + fires[:, -1] - inside.sum(axis=1)
    return np.stack(
        [tp, fp, anomalous.sum() - tp, (~anomalous).sum() - normal_hits], axis=1
    )


def f1(c: ConfusionCounts) -> float:
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def threshold_grid() -> np.ndarray:
    """DEFAULT_GRID_POINTS strictly decreasing thresholds from 1 to 0."""
    return np.linspace(1.0, 0.0, DEFAULT_GRID_POINTS)


def roc_curve(thresholds, counts: list[ConfusionCounts]) -> tuple[list[RocPoint], float]:
    """ROC from the confusion counts at each threshold, plus trapezoid AUC.

    thresholds must be strictly decreasing, with counts[j] taken at
    thresholds[j]. The curve is anchored at the (0,0) and (1,1) corners for
    the area computation.
    """
    grid = np.asarray(thresholds, dtype=np.float64)
    if grid.size < 2 or np.any(np.diff(grid) >= 0):
        raise ValueError("thresholds must be strictly decreasing")
    if grid[0] > 1.0 or grid[-1] < 0.0:
        raise ValueError("thresholds must lie within [0, 1]")
    if len(counts) != grid.size:
        raise ValueError("need one set of confusion counts per threshold")
    if counts[0].tp + counts[0].fn == 0:
        raise ValueError("no anomalous segments: TPR is undefined")
    points = []
    for th, c in zip(grid, counts):
        tpr = c.tp / (c.tp + c.fn)
        fpr = c.fp / (c.fp + c.tn) if c.fp + c.tn else 0.0
        points.append(RocPoint(fpr, tpr, float(th)))
    pts = sorted({(p.fpr, p.tpr) for p in points} | {(0.0, 0.0), (1.0, 1.0)})
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return points, float(_trapezoid(y, x))


def optimal_threshold(points: list[RocPoint]) -> float:
    """Threshold maximizing Youden's J = TPR - FPR; ties favor the higher
    threshold so the operating point stays conservative."""
    if not points:
        raise ValueError("empty ROC")
    best = max(points, key=lambda p: (p.tpr - p.fpr, p.threshold))
    return best.threshold


def earliness(
    alarms: list[AlarmEvent],
    truth: list[LabeledSegment],
    sample_rate_hz: float,
) -> float | None:
    """Mean seconds from anomalous-segment onset to its first alarm.

    Only true-positive segments contribute; returns None when there are no
    true positives at all.
    """
    idx = sorted(a.sample_index for a in alarms)
    delays = []
    for seg in truth:
        if not seg.is_anomalous:
            continue
        lo = bisect.bisect_left(idx, seg.start)
        if lo < len(idx) and idx[lo] < seg.end:
            delays.append((idx[lo] - seg.start) / sample_rate_hz)
    if not delays:
        return None
    return float(np.mean(delays))


def real_time_factor(make_detector, recording, runs: int = 5) -> float:
    """Median wall-time over duration across runs full replays of one
    recording, fresh detector each; gaitmp bench --runs is its front end.

    The wall time is replay's wall_s: ingest of the signal the detector's
    config selects (building SensorSamples from the recording's rows, or the
    naive detector's projection) as well as push and flush. runs must be at
    least 1.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    ratios = []
    for _ in range(runs):
        res = replay(make_detector(), recording)
        ratios.append(res.wall_s / recording.duration_s)
    return statistics.median(ratios)


def evaluate_recordings(
    pairs,
    make_detector,
    *,
    measure_rtf: bool = True,
) -> EvaluationReport:
    """Run one detector pass per (recording, truth) pair and sweep threshold_grid.

    One pass over each step's prefix-max records gives the counts of
    match_alarms(alarms_from_trace(...)) at every threshold; alarms_from_trace
    runs only at the optimal threshold, for earliness. The report is
    canonical: recordings are sorted by id, so feeding the same pairs in any
    order produces an identical report. The operating point for the
    per-recording numbers and the aggregate F1 is the Youden-optimal
    threshold of the pooled ROC. With measure_rtf, the report's
    real_time_factor is the median over the recordings of each scoring
    replay's wall_s over the recording's duration: real_time_factor's
    statistic, taken from the replays already run. That no truth list has
    overlapping segments is checked before any recording is replayed.
    """
    pairs = list(pairs)
    for _, truth in pairs:
        validate_segments(truth)
    grid = threshold_grid()
    entries = []
    ratios = []
    for k, (rec, truth) in enumerate(pairs):
        res = replay(make_detector(), rec)
        ratios.append(res.wall_s / rec.duration_s)
        fs = rec.sample_rate_hz
        counts = _sweep_counts(res.trace, truth, grid)
        rid = rec.meta.recording_id if rec.meta is not None else f"unnamed-{k:04d}"
        entries.append((rid, truth, fs, res.trace, counts))
    if not entries:
        raise ValueError("no recordings to evaluate")
    entries.sort(key=lambda e: e[0])

    pooled = [ConfusionCounts(*map(int, row)) for row in sum(e[4] for e in entries)]
    points, auc = roc_curve(grid, pooled)
    theta = optimal_threshold(points)
    j_opt = int(np.argmin(np.abs(grid - theta)))

    per_recording = []
    for rid, truth, fs, trace, counts in entries:
        c = ConfusionCounts(*map(int, counts[j_opt]))
        alarms = alarms_from_trace(trace, float(grid[j_opt]), fs)
        per_recording.append(RecordingResult(rid, c, f1(c), earliness(alarms, truth, fs)))

    return EvaluationReport(
        per_recording=tuple(per_recording),
        roc=tuple(points),
        auc=auc,
        optimal_threshold=theta,
        aggregate_f1=f1(pooled[j_opt]),
        f1_by_threshold=tuple(
            (float(th), f1(c)) for th, c in zip(grid, pooled)
        ),
        real_time_factor=statistics.median(ratios) if measure_rtf else None,
    )


# -- report emission --------------------------------------------------------


def report_to_dict(report: EvaluationReport) -> dict:
    """The report as nested dicts and lists for JSON, without
    f1_by_threshold, which has a CSV of its own."""
    out = asdict(report)
    del out["f1_by_threshold"]
    return out


def write_roc_csv(points, path) -> None:
    with open(path, "w") as f:
        f.write("fpr,tpr,threshold\n")
        for p in points:
            f.write(f"{p.fpr:.6g},{p.tpr:.6g},{p.threshold:.6g}\n")


def write_f1_csv(f1_by_threshold, path) -> None:
    with open(path, "w") as f:
        f.write("threshold,f1\n")
        for th, value in f1_by_threshold:
            f.write(f"{th:.6g},{value:.6g}\n")


def write_earliness_csv(per_recording, path) -> None:
    with open(path, "w") as f:
        f.write("recording_id,mean_earliness_s\n")
        for r in per_recording:
            cell = "" if r.mean_earliness_s is None else f"{r.mean_earliness_s:.6g}"
            f.write(f"{r.recording_id},{cell}\n")
