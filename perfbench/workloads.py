"""Workload inputs and one measured pass of each workload.

Imported only after run.py has put the checkout's src/ first on sys.path.
Every pass drives gaitmp through its public API; the detectors are thin
subclasses that log each push's latency (clock.PushLog) and keep the alarms
push and flush return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import gaitmp.detectors
import gaitmp.evaluation
from gaitmp import (
    NaiveDetector,
    NaiveDetectorConfig,
    Recording,
    SignalSelector,
    StepGatedDetector,
    StepSystemConfig,
    StreamingEnvelope,
    SynthConfig,
    evaluate_recordings,
    generate,
)
from gaitmp.dataset import ANOMALY_KINDS
from gaitmp.steps import StepDetector

from clock import PushLog
from tracing import Tracer

DESK_RECORDINGS = 50
# the desk sweep of tests/test_acceptance.py starts at recording seed 0 for k=8
DESK_OFFSET = 8
SEED_SPACE = 2**32


def make_inputs(workload: str, seed: int):
    """(recording, truth) pairs for one workload, determined by the seed."""
    k = seed % SEED_SPACE
    if workload == "walk":
        return [generate(SynthConfig(n_normal_steps=58, n_anomalous_steps=2, rng_seed=k))]
    if workload in ("idle", "naive"):
        return [
            generate(SynthConfig(n_normal_steps=10, n_anomalous_steps=2, rng_seed=k, tail_s=600))
        ]
    if workload == "desk-sweep":
        pairs = []
        for j in range(DESK_RECORDINGS):
            s = (seed - DESK_OFFSET + j) % SEED_SPACE
            cfg = SynthConfig(
                n_normal_steps=9 + (s * 3) % 5,
                n_anomalous_steps=1 + s % 2,
                rng_seed=s,
                anomaly_kind=ANOMALY_KINDS[s % 3],
            )
            pairs.append(generate(cfg))
        return pairs
    raise ValueError(f"unknown workload {workload!r}")


class _TimedPush:
    """Logs each push's latency and whether it appended a score row, and
    keeps every alarm push and flush hand back."""

    def __init__(self, *args, log: PushLog, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log
        self.alarms: list = []

    def push(self, reading):
        before = len(self.trace)
        t0 = time.perf_counter_ns()
        out = super().push(reading)
        latency = time.perf_counter_ns() - t0
        self.log.record(latency, len(self.trace) != before)
        self.alarms.extend(out)
        return out

    def flush(self):
        out = super().flush()
        self.alarms.extend(out)
        return out


class TimedStepGated(_TimedPush, StepGatedDetector):
    pass


class TimedNaive(_TimedPush, NaiveDetector):
    pass


@dataclass
class PassResult:
    log: PushLog
    duration_s: float
    detectors: list
    report: object = None


def stream_pass(recording: Recording, log: PushLog, tracer: Tracer | None) -> PassResult:
    """Closed loop: build each SensorSample from its row, push, flush."""
    det = TimedStepGated(StepSystemConfig(), log=log)
    samples = recording.iter_samples()
    if tracer is not None:
        samples = tracer.spans("dataset.ingest", samples)
    log.start()
    for sample in samples:
        det.push(sample)
    det.flush()
    log.stop()
    return PassResult(log, recording.duration_s, [det])


def naive_pass(recording: Recording, log: PushLog, tracer: Tracer | None) -> PassResult:
    """Projected scalars one at a time, the way replay feeds the naive mode."""
    det = TimedNaive(NaiveDetectorConfig(), recording.sample_rate_hz, log=log)
    project = recording.project if tracer is None else tracer.wrap("dataset.ingest", recording.project)
    log.start()
    values = project(SignalSelector()).values
    for v in values:
        det.push(v)
    det.flush()
    log.stop()
    return PassResult(log, recording.duration_s, [det])


def desk_pass(pairs, log: PushLog, tracer: Tracer | None) -> PassResult:
    """The researcher's offline sweep: one report over every recording."""
    dets = []

    def make_detector():
        det = TimedStepGated(StepSystemConfig(), log=log)
        dets.append(det)
        return det

    log.start()
    report = evaluate_recordings(pairs, make_detector, measure_rtf=False)
    log.stop()
    duration = sum(rec.duration_s for rec, _ in pairs)
    return PassResult(log, duration, dets, report=report)


def run_pass(workload: str, pairs, tracer: Tracer | None = None) -> PassResult:
    """One pass of the workload; traced when a tracer is given."""
    log = PushLog(tracer)
    if workload == "desk-sweep":
        return desk_pass(pairs, log, tracer)
    rec = pairs[0][0]
    if workload == "naive":
        return naive_pass(rec, log, tracer)
    return stream_pass(rec, log, tracer)


def trace_targets(tracer: Tracer):
    """Names gaitmp resolves at call time, each with its traced stand-in."""
    det_mod, ev_mod = gaitmp.detectors, gaitmp.evaluation
    w = tracer.wrap
    return [
        (det_mod, "distance_profile", w("mp.distance_profile", det_mod.distance_profile, "mp.windows")),
        (det_mod, "project", w("signal.project", det_mod.project)),
        (StreamingEnvelope, "push", w("signal.envelope", vars(StreamingEnvelope)["push"])),
        (StepDetector, "feed", w("steps.feed", vars(StepDetector)["feed"], "steps.events")),
        (
            StepDetector,
            "recompute_threshold",
            w("steps.recompute_threshold", vars(StepDetector)["recompute_threshold"]),
        ),
        (StepGatedDetector, "push", w("detectors.push", vars(StepGatedDetector)["push"])),
        (NaiveDetector, "push", w("detectors.push", vars(NaiveDetector)["push"])),
        (Recording, "samples", property(w("dataset.ingest", vars(Recording)["samples"].fget))),
        (ev_mod, "replay", w("evaluation.replay", ev_mod.replay)),
        (ev_mod, "alarms_from_trace", w("evaluation.alarms_from_trace", ev_mod.alarms_from_trace)),
        (ev_mod, "match_alarms", w("evaluation.match_alarms", ev_mod.match_alarms)),
    ]
