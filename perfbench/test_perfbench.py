"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import run

run.load_package()

import checks  # noqa: E402
import gaitmp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaitmp import AlarmEvent, SynthConfig, generate  # noqa: E402


def test_traced_pass_restores_every_wrapped_name():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in workloads.trace_targets(tracing.Tracer())]
    rec, _ = generate(SynthConfig(n_normal_steps=6, n_anomalous_steps=1, rng_seed=3))
    tracer = tracing.Tracer()
    with tracing.patched(workloads.trace_targets(tracer)):
        workloads.run_pass("walk", [(rec, [])], tracer)
    assert tracer.summary()["mp.distance_profile"][0] > 0
    assert gaitmp.detectors.distance_profile is gaitmp.mp.distance_profile
    assert gaitmp.detectors.project is gaitmp.signal.project
    assert gaitmp.evaluation.replay is gaitmp.detectors.replay
    assert gaitmp.evaluation.alarms_from_trace is gaitmp.detectors.alarms_from_trace
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_patched_restores_after_an_exception():
    before = gaitmp.detectors.distance_profile
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(workloads.trace_targets(tracer)):
            assert gaitmp.detectors.distance_profile is not before
            raise RuntimeError
    assert gaitmp.detectors.distance_profile is before


def test_self_times_on_a_hand_built_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert tracing.self_times(parent, end - start).tolist() == [30.0, 20.0, 10.0, 40.0]

    tracer = tracing.Tracer()
    tracer.name_id.extend([0, 1, 2, 1])
    tracer.names.extend(["root", "child", "leaf"])
    tracer.parent.extend(parent.tolist())
    tracer.start.extend(start.tolist())
    tracer.end.extend(end.tolist())
    calls, total, own = tracer.summary()["child"]
    assert (calls, total, own) == (2, pytest.approx(70e-9), pytest.approx(60e-9))


def test_tracer_nests_spans_by_call_order():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: [1, 2, 3], counter="items")
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.parent.tolist() == [-1, 0]
    assert tracer.counts == {"items": 3}


@pytest.fixture(scope="module")
def walk_pass():
    return workloads.run_pass("walk", workloads.make_inputs("walk", run.DEFAULT_SEED))


def test_reference_accepts_this_commit_and_rejects_a_perturbed_alarm(walk_pass):
    ref = checks.load_reference("walk", run.DEFAULT_SEED)
    assert ref is not None and ref[0] == "full"
    assert checks.reference_problems(walk_pass, ref) == [[]]
    det = walk_pass.detectors[0]
    kept = list(det.alarms)
    try:
        a = det.alarms[0]
        det.alarms[0] = AlarmEvent(a.sample_index + 1, a.time_s, a.score, a.query_len)
        assert checks.reference_problems(walk_pass, ref) != [[]]
        assert checks.invariant_problems(det, 100.0)
        del det.alarms[0]
        assert checks.reference_problems(walk_pass, ref) != [[]]
    finally:
        det.alarms[:] = kept


def test_digest_reference_rejects_a_perturbed_alarm(walk_pass):
    entry = json.loads(checks.DIGESTS.read_text())["walk"][str(run.DEFAULT_SEED)]
    ref = ("digest", entry, None)
    assert checks.reference_problems(walk_pass, ref) == [[]]
    det = walk_pass.detectors[0]
    kept = det.alarms.pop()
    try:
        assert checks.reference_problems(walk_pass, ref) != [[]]
    finally:
        det.alarms.append(kept)


def test_behaviour_counts_on_the_walk(walk_pass):
    det = walk_pass.detectors[0]
    counts = checks.behaviour_counts(det, 6247)  # readings in the seed-8 walk
    ended = sum(1 for e in det.step_events if e["kind"] == "ended")
    assert counts["admitted"] + counts["quarantined"] == ended
    assert counts["unscorable"] >= 0
    assert counts["retained_records"] == len(det.trace) + len(det.step_events) + len(det.admissions)


def test_result_line_has_exactly_the_listed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "naive", "--seconds", "0", "--trace", str(trace)])
        result = json.loads(out.getvalue().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
