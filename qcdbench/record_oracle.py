#!/usr/bin/env python3
"""Record the reference values that the oracle-mc workload is checked against.

Runs the oracle-mc batch at RECORD_SEEDS (a seed range no benchmark run
uses), pools the estimates and writes oracle_reference.json next to this
file. A later run passes when each of its Monte-Carlo estimates lies within
4 combined standard errors of the pooled value, so a change of draw order
does not count as a failure while a biased oracle does.

Run from the repository root: python3 qcdbench/record_oracle.py
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

RECORD_SEEDS = range(1_000_000, 1_000_020)


def pooled(estimates, weights):
    total = sum(weights)
    value = sum(w * v for w, (v, _) in zip(weights, estimates)) / total
    sem = math.sqrt(sum((w * s) ** 2 for w, (_, s) in zip(weights, estimates))) / total
    return {"value": value, "sem": sem}


def main():
    wl = workloads.OracleMc(HERE, 0)
    runs = [wl.run(seed) for seed in RECORD_SEEDS]
    k = len(runs)
    out = {
        "record_seeds": [RECORD_SEEDS.start, RECORD_SEEDS.stop],
        "true_arl_mc": pooled([(a.value, a.sem) for a, _, _ in runs], [1] * k),
        "true_add_mc": {},
        "bias_bounds": [],
    }
    for i, thr in enumerate(wl.add["thresholds"]):
        ests = [adds[i] for _, adds, _ in runs]
        out["true_add_mc"][repr(thr)] = pooled(
            [(e.value, e.sem) for e in ests], [e.retention_fraction for e in ests]
        )
    for j, (fam, event, censor, n, a) in enumerate(wl.cells()):
        reps = [cells[j] for _, _, cells in runs]
        mc = pooled([(r.mc_bias, r.mc_ci_halfwidth / 3.0) for r in reps], [1] * k)
        out["bias_bounds"].append({
            "family": [event, censor], "n": n, "a": a,
            "lower": reps[0].lower, "upper": reps[0].upper,
            "mc_bias": mc["value"], "mc_sem": mc["sem"],
        })
    (HERE / "oracle_reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
