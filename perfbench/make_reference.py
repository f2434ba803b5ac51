#!/usr/bin/env python3
"""Record the outputs that run.py checks every pass against.

    python3 perfbench/make_reference.py --full 8 101 --digests 0 63

Run it from a checkout root at the commit whose behaviour is the reference.
--full seeds get their discrete outputs as perfbench/reference/<workload>-<seed>.json
and their trace scores as .npz (compared within checks.SCORE_TOL); every seed
in the inclusive --digests range gets a SHA-256 of the discrete outputs plus
the count, sum and maximum of its scores in reference/digests.json. A
reference is recorded only from passes that satisfy the invariant checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from run import WORKLOADS, load_package


def one_pass(workload: str, seed: int):
    import checks
    import workloads

    pairs = workloads.make_inputs(workload, seed)
    result = workloads.run_pass(workload, pairs)
    for det, (rec, _) in zip(result.detectors, pairs):
        problems = checks.invariant_problems(det, rec.sample_rate_hz)
        if problems:
            raise SystemExit(f"{workload} seed {seed}: {problems[0]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", type=int, nargs="*", default=[])
    parser.add_argument("--digests", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    load_package()
    import checks

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in args.full:
        for workload in WORKLOADS:
            result = one_pass(workload, seed)
            outputs_path, scores_path = checks.full_reference_paths(workload, seed)
            outputs_path.write_text(json.dumps(checks.pass_outputs(result), sort_keys=True) + "\n")
            np.savez_compressed(scores_path, scores=checks.pass_scores(result))
            print(f"full {workload} seed {seed}", flush=True)
    if args.digests:
        first, last = args.digests
        table = json.loads(checks.DIGESTS.read_text()) if checks.DIGESTS.is_file() else {}
        for seed in range(first, last + 1):
            for workload in WORKLOADS:
                result = one_pass(workload, seed)
                entry = {"sha256": checks.digest(checks.pass_outputs(result))}
                entry.update(checks.score_summary(checks.pass_scores(result)))
                table.setdefault(workload, {})[str(seed)] = entry
            checks.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"digests seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
