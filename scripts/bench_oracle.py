#!/usr/bin/env python3
"""CPU time of the Monte-Carlo oracles, end to end and layer by layer.

One op is the batch of oracle calls that the benchmark's ``oracle-mc``
workload makes, with the same parameters: ``true_arl_mc`` at threshold 126,
``true_add_mc`` at thresholds 60, 100, 200 and 400 under a geometric(0.001)
changepoint (GSR, N(0, 0.1) -> N(0.1, 0.1), 20k replications each), and the
twelve ``bias_bounds`` cells. The script runs one untimed op to fill caches,
then one op per seed and repeat, and records medians of the following; the
layers are module functions wrapped in place by ``bench_common.Layers``:

* end to end: CPU-s per op and per oracle call, and the minor page faults
  (``ru_minflt``) each call takes, which show allocator churn such as a heap
  trimmed and grown again block after block;
* ``oracle._first_alarms``: CPU-s and frames drawn per call, and draws per
  CPU-s;
* per bias-bound cell: CPU-s in ``survival._product_limit``,
  ``rmst_km_batch`` (which includes it) and the quadrature
  (``oracle._bound_integrals``, every rule the cell built), and the
  ``tracemalloc`` peak of the cell from one separate untimed pass;
* the process's peak RSS (``ru_maxrss``) after the timed ops, before that
  traced pass. Memory is in MB of 2**20 bytes, as ``qcdbench`` reports
  ``peak_rss_mb``.

Every run stores three SHA-256 digests of each seed's op, of the ``repr`` of:
``<seed>/estimates``, the ARL and ADD estimates; ``<seed>/bounds``, the
quadrature bounds of the bias-bound cells; and ``<seed>/mc_block_<B>``, the
cells' Monte-Carlo bias, halfwidth and containment, whose draws depend on the
block size B (``survival._BLOCK_SAMPLES``) of the checkout. When the output
file already holds runs, a new run must reproduce every digest they share bit
for bit, or the script exits 1 and leaves the file as it was; two checkouts
with different block sizes still share and check the first two. To time
another checkout of the program into the same file, point ``--src`` at its
``src`` directory:

    python scripts/bench_oracle.py --label change
    python scripts/bench_oracle.py --label parent --src /path/to/parent/src
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import bench_common

ARL = {"threshold": 126.0, "n_reps": 20_000, "horizon_cap": 20_000}
ADD = {"thresholds": (60.0, 100.0, 200.0, 400.0), "law": ("geometric", 0.001),
       "n_reps": 20_000, "horizon_cap": 60_000}
BIAS = {"families": (("exp:1", "unif:0,2"), ("unif:0,1", "exp:1")),
        "n": (5, 20, 100), "a": (0.5, 1.0), "mc_reps": 10_000}
SEEDS = (1, 2, 3, 4, 5)
REPEATS = 2
CELLS = [(fam, event, censor, n, a)
         for fam, (event, censor) in enumerate(BIAS["families"])
         for n in BIAS["n"] for a in BIAS["a"]]


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _op(seed, oracle, model, DetectorConfig, layers):
    """The batch at one seed: its result and each call's CPU-s and minor
    page faults."""
    calls = {}

    def call(label, fn, *args, **kwargs):
        layers.label = label
        faults = _minflt()
        t0 = time.process_time()
        result = fn(*args, **kwargs)
        calls[label] = time.process_time() - t0, _minflt() - faults
        return result

    arl = call(f"true_arl_mc h={ARL['threshold']:g}", oracle.true_arl_mc, model,
               DetectorConfig(kind="gsr", threshold=ARL["threshold"], model=model),
               n_reps=ARL["n_reps"], horizon_cap=ARL["horizon_cap"], seed=seed)
    adds = [
        call(f"true_add_mc h={thr:g}", oracle.true_add_mc, model,
             DetectorConfig(kind="gsr", threshold=thr, model=model), ADD["law"],
             n_reps=ADD["n_reps"], horizon_cap=ADD["horizon_cap"], seed=seed)
        for thr in ADD["thresholds"]
    ]
    cells = [call(_cell_label(*cell), _cell, oracle, seed, *cell) for cell in CELLS]
    return (arl, adds, cells), calls


def _digests(result, block: int) -> dict:
    """SHA-256 digests of one op's output in three parts (see the module
    docstring)."""
    arl, adds, cells = result
    parts = {
        "estimates": (arl, adds),
        "bounds": [(c.n, c.a, c.lower, c.upper) for c in cells],
        f"mc_block_{block}": [(c.mc_bias, c.mc_ci_halfwidth, c.contained) for c in cells],
    }
    return {name: hashlib.sha256(repr(part).encode()).hexdigest() for name, part in parts.items()}


def _cell_label(fam, event, censor, n, a):
    return f"bias_bounds {event} | {censor} n={n} a={a:g}"


def _cell(oracle, seed, fam, event, censor, n, a):
    return oracle.bias_bounds(oracle.Dist.parse(event), oracle.Dist.parse(censor), n=n, a=a,
                              mc_reps=BIAS["mc_reps"], seed=2 * seed + fam)


def _traced_peaks_mb(oracle, seed) -> dict:
    """The tracemalloc peak of each bias-bound cell, one cell at a time."""
    peaks = {}
    for cell in CELLS:
        tracemalloc.start()
        try:
            _cell(oracle, seed, *cell)
            peaks[_cell_label(*cell)] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def measure(args) -> dict:
    bench_common.import_qcdeval(args.src)
    from qcdeval import oracle, survival
    from qcdeval.detectors import DetectorConfig, LikelihoodModel

    layers, draws = bench_common.Layers(), {}  # draws: call -> frames drawn by _first_alarms

    def count_draws(tau, model, detector, nus, horizon_cap, rng):
        # tau + 1 frames up to an alarm, horizon_cap without one (tau = -1).
        draws[layers.label] = int((tau + 1).sum() + horizon_cap * (tau < 0).sum())

    layers.wrap(oracle, "_first_alarms", "first_alarms", count_draws)
    layers.wrap(survival, "_product_limit", "product_limit")
    layers.wrap(oracle, "rmst_km_batch", "rmst_km_batch")
    layers.wrap(oracle, "_bound_integrals", "quadrature")
    model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)

    t0 = time.process_time()
    _op(0, oracle, model, DetectorConfig, layers)
    warmup = time.process_time() - t0

    op_s, digests = [], {}
    per_call = defaultdict(lambda: defaultdict(list))  # call -> metric -> runs
    for seed in SEEDS:
        for _ in range(REPEATS):
            layers.cpu_s.clear()
            t0 = time.process_time()
            result, calls = _op(seed, oracle, model, DetectorConfig, layers)
            op_s.append(time.process_time() - t0)
            for part, digest in _digests(result, survival._BLOCK_SAMPLES).items():
                if digests.setdefault(f"{seed}/{part}", digest) != digest:
                    raise SystemExit(f"seed {seed}: two runs of one op gave different {part}")
            for label, (cpu, faults) in calls.items():
                per_call[label]["cpu_s"].append(cpu)
                per_call[label]["minflt"].append(faults)
                for layer, s in layers.cpu_s[label].items():
                    per_call[label][layer + "_cpu_s"].append(s)
                if label in draws:
                    per_call[label]["draws"].append(draws[label])
    # Read before the traced pass, whose bookkeeping would add to it.
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced_peaks = _traced_peaks_mb(oracle, SEEDS[0])

    rows = []
    for label, metrics in per_call.items():
        row = {"call": label}
        for name, runs in metrics.items():
            counted = name in ("draws", "minflt")
            row[name + "_p50"] = statistics.median(runs) if counted else bench_common.p50(runs)
        if "draws" in metrics:
            rates = [d / s for d, s in zip(metrics["draws"], metrics["first_alarms_cpu_s"])]
            row["draws_per_first_alarms_cpu_s_p50"] = round(statistics.median(rates))
        if label in traced_peaks:
            row["traced_peak_mb"] = round(traced_peaks[label], 2)
        rows.append(row)
    quartiles = statistics.quantiles(op_s, n=4)
    return {
        "machine": bench_common.machine(),
        "seeds": list(SEEDS),
        "repeats": REPEATS,
        "outputs_sha256": digests,
        "warmup_op_cpu_s": round(warmup, 4),
        "op_cpu_s": {"p50": bench_common.p50(op_s), "q1": round(quartiles[0], 5),
                     "q3": round(quartiles[2], 5), "runs": [round(x, 4) for x in op_s]},
        "maxrss_mb": round(maxrss_mb, 1),
        "calls": rows,
    }


def main(argv=None) -> int:
    return bench_common.main(
        argv, __doc__, "BENCH_oracle.json", measure,
        lambda run: {"op_cpu_s": run["op_cpu_s"], "maxrss_mb": run["maxrss_mb"]})


if __name__ == "__main__":
    sys.exit(main())
