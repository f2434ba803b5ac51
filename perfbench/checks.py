"""Output checks for every measured pass, read from public surfaces only.

Three kinds of check, each returning a list of problem strings:

* invariants the package documents, checked on every recording replay;
* equality with a reference recorded from an earlier commit (see
  make_reference.py): full outputs for the default and held-out seeds, a
  digest plus score summary for every other recorded seed;
* behaviour counts derived from `step_events`, `admissions` and `trace`.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from gaitmp import StepGatedDetector, alarms_from_trace
from gaitmp.signal import envelope_window_samples

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DIGESTS = REFERENCE_DIR / "digests.json"
# Scores are distances over 2*sqrt(m), so they lie in [0, 1]. Float64 MASS on
# windows of at most ~1000 samples carries rounding near 1e-13 here; 1e-9 leaves
# room for a reordered but equivalent computation and still catches any change
# of algorithm. It is the tolerance ROADMAP item A1 asks of a faster scorer.
SCORE_TOL = 1e-9


# -- what a replay produced --------------------------------------------------


def recording_outputs(det) -> dict:
    """Discrete outputs of one replay: these must match a reference exactly."""
    out = {"alarms": [a.sample_index for a in det.alarms], "trace_len": len(det.trace)}
    if isinstance(det, StepGatedDetector):
        out["admissions"] = [
            [a["sample_index"], a["length"], a["provisional"]] for a in det.admissions
        ]
        out["step_events"] = [[e["kind"], e["index"], e["sample_index"]] for e in det.step_events]
    return out


def report_outputs(report) -> dict:
    return {
        "counts": [
            [r.recording_id, r.counts.tp, r.counts.fp, r.counts.fn, r.counts.tn]
            for r in report.per_recording
        ],
        "auc": report.auc,
        "f1": report.aggregate_f1,
        "optimal_threshold": report.optimal_threshold,
    }


def pass_outputs(result) -> dict:
    out = {"recordings": [recording_outputs(d) for d in result.detectors]}
    if result.report is not None:
        out["report"] = report_outputs(result.report)
    return out


def pass_scores(result) -> np.ndarray:
    return np.array([r.score for d in result.detectors for r in d.trace], dtype=np.float64)


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def score_summary(scores: np.ndarray) -> dict:
    return {"n": int(scores.size), "sum": math.fsum(scores.tolist()), "max": float(scores.max())}


# -- invariants --------------------------------------------------------------


def invariant_problems(det, sample_rate_hz: float) -> list[str]:
    """Documented guarantees, checked on one finished replay."""
    problems = []
    threshold = det.cfg.discord_threshold
    rethresholded = alarms_from_trace(det.trace, threshold, sample_rate_hz)
    if rethresholded != det.alarms:
        problems.append(
            f"alarms_from_trace at {threshold} gives {len(rethresholded)} alarms, "
            f"online run raised {len(det.alarms)}"
        )
    bad = [r.score for r in det.trace if not 0.0 <= r.score <= 1.0]
    if bad:
        problems.append(f"{len(bad)} scores outside [0, 1], e.g. {bad[0]!r}")
    if isinstance(det, StepGatedDetector):
        ordinal = {(r.sample_index, r.score): r.step_ordinal for r in det.trace}
        ordinals = [ordinal.get((a.sample_index, a.score)) for a in det.alarms]
        if None in ordinals:
            problems.append("an alarm matches no trace row")
        elif len(set(ordinals)) != len(ordinals):
            problems.append(f"more than one alarm in one step: ordinals {ordinals}")
    return problems


# -- behaviour counts --------------------------------------------------------


def behaviour_counts(det, n_readings: int) -> dict[str, int]:
    """Admitted, quarantined and unscorable steps, and records retained.

    unscorable counts readings of an open step, at or past min_query_len,
    that produced no score row. A step is open from the push that emitted
    its "started" event up to the push that emitted its "ended" event; each
    push finalizes the envelope value `right` readings behind it, and
    readings settled at the last sample (flush) close the stream.
    """
    if not isinstance(det, StepGatedDetector):
        return {"admitted": 0, "quarantined": 0, "unscorable": 0, "retained_records": len(det.trace)}
    cfg = det.cfg
    right = envelope_window_samples(cfg.envelope_window_ms, cfg.sample_rate_hz) // 2

    def env_index(raw: int) -> int:
        return n_readings if raw >= n_readings - 1 else raw - right

    steps = []  # [start index, opened at, closed at]
    for e in det.step_events:
        if e["kind"] == "started":
            steps.append([e["index"], env_index(e["sample_index"]), n_readings])
        else:
            steps[-1][2] = env_index(e["sample_index"])
    rows = Counter(r.step_ordinal for r in det.trace)
    unscorable = 0
    for ordinal, (start, opened, closed) in enumerate(steps):
        expected = max(0, closed - max(opened, start + cfg.min_query_len - 1))
        unscorable += expected - rows[ordinal]
    ended = sum(1 for e in det.step_events if e["kind"] == "ended")
    admitted = sum(1 for a in det.admissions if not a["provisional"])
    return {
        "admitted": admitted,
        "quarantined": ended - admitted,
        "unscorable": unscorable,
        "retained_records": len(det.trace) + len(det.step_events) + len(det.admissions),
    }


# -- reference ---------------------------------------------------------------


def full_reference_paths(workload: str, seed: int) -> tuple[Path, Path]:
    stem = REFERENCE_DIR / f"{workload}-{seed}"
    return stem.with_suffix(".json"), stem.with_suffix(".npz")


def load_reference(workload: str, seed: int):
    """('full', outputs, scores), ('digest', entry, None) or None."""
    outputs_path, scores_path = full_reference_paths(workload, seed)
    if outputs_path.is_file():
        with np.load(scores_path) as z:
            scores = z["scores"]
        return ("full", json.loads(outputs_path.read_text()), scores)
    if DIGESTS.is_file():
        entry = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
        if entry is not None:
            return ("digest", entry, None)
    return None


def _first_difference(got, want, path="") -> str:
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want:
            if got.get(key) != want[key]:
                return _first_difference(got.get(key), want[key], f"{path}.{key}")
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)}, reference {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{path}[{i}]")
    return f"{path}: {got!r}, reference {want!r}"


def reference_problems(result, ref) -> list[list[str]]:
    """Per-recording problems against a reference; report-level ones are
    charged to every recording of the pass."""
    n = len(result.detectors)
    per = [[] for _ in range(n)]
    if ref is None:
        return per
    kind, want, want_scores = ref
    got = pass_outputs(result)
    scores = pass_scores(result)
    if kind == "digest":
        if digest(got) != want["sha256"]:
            for p in per:
                p.append("outputs differ from the recorded digest")
        s = score_summary(scores)
        if s["n"] != want["n"] or abs(s["max"] - want["max"]) > SCORE_TOL or abs(
            s["sum"] - want["sum"]
        ) > SCORE_TOL * max(1, s["n"]):
            for p in per:
                p.append(f"score summary {s} differs from reference {want}")
        return per
    shared = []
    if got.get("report") != want.get("report"):
        shared.append("report " + _first_difference(got.get("report"), want.get("report")))
    got_at = want_at = 0
    for i, (g, w) in enumerate(zip(got["recordings"], want["recordings"])):
        if g != w:
            per[i].append(f"recording {i}" + _first_difference(g, w))
        k = w["trace_len"]
        if g["trace_len"] == k:
            dev = np.abs(scores[got_at : got_at + k] - want_scores[want_at : want_at + k])
            if dev.size and dev.max() > SCORE_TOL:
                per[i].append(f"recording {i}: score deviates by {dev.max():.3g} > {SCORE_TOL}")
        got_at += g["trace_len"]
        want_at += k
    if len(got["recordings"]) != len(want["recordings"]):
        shared.append("recording count differs from the reference")
    for p in per:
        p.extend(shared)
    return per
