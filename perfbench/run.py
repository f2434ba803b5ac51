#!/usr/bin/env python3
"""Layered benchmark of the gaitmp streaming detector.

    python3 perfbench/run.py --workload walk --seed 8 --seconds 25 --trace 0

Run from the root of a checkout; gaitmp is imported from its src/ directory,
never from an installed copy. Each run sets up its inputs from the seed,
repeats passes of the workload for --seconds, checks every pass's outputs
(invariants plus the recorded reference, see checks.py) and prints one line
per metric followed by a JSON result line. --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 alternates untraced and traced passes,
reports the per-layer metrics and writes the spans of the traced passes to
perfbench/out/. Times are corrected for machine speed (see clock.py). The
exit code is 1 when any output check failed or the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("walk", "idle", "naive", "desk-sweep")
DEFAULT_SEED = 8
SETUP_REPEATS = 9


def load_package():
    init = SRC / "gaitmp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no gaitmp sources at {init.parent}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import gaitmp

    if Path(gaitmp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported gaitmp from {gaitmp.__file__}, not {init}")
    return gaitmp


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import gaitmp and build the inputs,
    corrected for machine speed by probes on either side."""
    import clock

    before = min(clock.probe() for _ in range(5))
    t0 = time.perf_counter()
    load_package()
    import workloads

    workloads.make_inputs(workload, seed)
    elapsed = time.perf_counter() - t0
    return clock.scaled(elapsed, before, min(clock.probe() for _ in range(5)))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def layer_metrics(result, tracer, pairs, checks) -> dict[str, float]:
    """Per-layer numbers of one traced pass (raw times, probes left out)."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    m: dict[str, float] = {"dataset.ingest.s": total("dataset.ingest")}
    for layer in (
        "signal.project",
        "signal.envelope",
        "steps.feed",
        "steps.recompute_threshold",
        "mp.distance_profile",
        "evaluation.alarms_from_trace",
        "evaluation.match_alarms",
    ):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = total(layer)
    dp_calls = calls("mp.distance_profile")
    m["mp.distance_profile.us_per_call"] = 1e6 * total("mp.distance_profile") / dp_calls if dp_calls else 0.0
    m["mp.windows"] = counts.get("mp.windows", 0)
    m["steps.events"] = counts.get("steps.events", 0)
    m["evaluation.replay.s"] = total("evaluation.replay")
    m["detectors.push.s"] = total("detectors.push")
    m["detectors.push.self_s"] = summary.get("detectors.push", (0, 0.0, 0.0))[2]
    scored = sum(len(d.trace) for d in result.detectors)
    m["detectors.scored"] = scored
    m["detectors.chunks_per_score"] = dp_calls / scored if scored else 0.0
    for det, (rec, _) in zip(result.detectors, pairs):
        for key, value in checks.behaviour_counts(det, rec.n).items():
            m[f"detectors.{key}"] = m.get(f"detectors.{key}", 0) + value
    m["trace.pass_s"] = result.log.raw_wall_s
    return m


def end_to_end(untraced, setup_s: float, rss_mb: float) -> dict[str, float]:
    """End-to-end numbers pooled over the untraced passes of a run."""
    latency = np.concatenate([r.log.latency_us() for r in untraced])
    scored = latency[np.concatenate([np.asarray(r.log.scored, dtype=bool) for r in untraced])]
    report_s = statistics.median(r.log.wall_s for r in untraced)
    print(
        f"  {len(untraced)} untraced passes, {latency.size} pushes, {scored.size} scored; "
        f"median uncorrected pass time {statistics.median(r.log.raw_wall_s for r in untraced)!r} s"
    )
    # far tails vary too much between seeds to gate on (see README); shown only
    print(f"  push_us_p999 = {float(np.percentile(latency, 99.9))!r} us  (not gated)")
    print(f"  score_us_p99 = {float(np.percentile(scored, 99))!r} us  (not gated)")
    return {
        "setup_s": setup_s,
        "rtf": report_s / untraced[0].duration_s,
        "report_s": report_s,
        "push_us_p50": float(np.percentile(latency, 50)),
        "score_us_p50": float(np.percentile(scored, 50)),
        "score_us_p90": float(np.percentile(scored, 90)),
        "peak_rss_mb": rss_mb,
    }


def print_quality(report) -> None:
    delays = [r.mean_earliness_s for r in report.per_recording if r.mean_earliness_s is not None]
    print(f"  auc = {report.auc!r} 1  (pinned by the reference)")
    print(f"  f1 = {report.aggregate_f1!r} 1  (pinned by the reference)")
    print(f"  earliness_s = {statistics.fmean(delays)!r} s  (pinned by the reference)")


def run(args) -> int:
    load_package()
    import checks
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_s = measure_setup(args.workload, args.seed)
    pairs = workloads.make_inputs(args.workload, args.seed)
    ref = checks.load_reference(args.workload, args.seed)
    if ref is None:
        print(f"no recorded reference for seed {args.seed}: invariant checks only", file=sys.stderr)

    attempted = failed = 0
    problems: list[str] = []
    untraced, traced, tracers, layers = [], [], [], []
    rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while not (time.perf_counter() >= deadline and untraced and (traced or not args.trace)):
        tracer = tracing.Tracer() if args.trace and len(untraced) > len(traced) else None
        attempted += len(pairs)
        try:
            if tracer is None:
                result = workloads.run_pass(args.workload, pairs)
            else:
                with tracing.patched(workloads.trace_targets(tracer)):
                    result = workloads.run_pass(args.workload, pairs, tracer)
        except Exception as exc:  # a replay that raises is a failed operation
            failed += len(pairs)
            problems.append(f"pass raised {type(exc).__name__}: {exc}")
            break
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_recording = checks.reference_problems(result, ref)
        for det, (rec, _), found in zip(result.detectors, pairs, per_recording):
            found.extend(checks.invariant_problems(det, rec.sample_rate_hz))
        failed += sum(1 for found in per_recording if found)
        problems.extend(p for found in per_recording for p in found)
        if tracer is None:
            result.detectors = []  # checked; end_to_end needs only the log
            untraced.append(result)
        else:
            layers.append(layer_metrics(result, tracer, pairs, checks))
            traced.append(result)
            tracers.append(tracer)

    print(f"{args.workload} seed {args.seed}:")
    metrics: dict[str, float] = {}
    if untraced:
        metrics.update(end_to_end(untraced, setup_s, rss_mb))
        if untraced[-1].report is not None:
            print_quality(untraced[-1].report)
    if layers:
        for name in layers[0]:
            metrics[name] = statistics.median_low(m[name] for m in layers)
        metrics["trace.overhead"] = (
            statistics.median(r.log.wall_s for r in traced)
            / statistics.median(r.log.wall_s for r in untraced)
            - 1.0
        )
        OUT.mkdir(exist_ok=True)
        tracing.save_spans(tracers, OUT / f"spans-{args.workload}.npz")

    result_metrics = {}
    for entry in wanted:
        if entry["name"] in metrics:
            value = metrics[entry["name"]]
            result_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']} = {value!r} {entry['unit']}")
    print(f"  fail_share = {failed / attempted!r} 1  ({failed}/{attempted} replays)")
    for p in problems[:20]:
        print(f"FAIL: {p}", file=sys.stderr)
    correct = failed == 0 and len(result_metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
