#!/usr/bin/env python3
"""CPU time of ``qcdeval curve`` stage by stage, with and without the ingest
cache.

The inputs are made like the benchmark's ``curve-gsr`` workload: Gaussian
N(0, 0.1) -> N(0.1, 0.1) sequences of uniform(30, 300) frames, a uniform
changepoint in 90% of them, seed 1, written with ``save_jsonl``; one input of
1000 sequences and one of 20k. Each is run through the ``curve`` pipeline
(all five metrics, CSV and SVG) for each detector of ``DETECTORS`` (GSR and
CUSUM on grid ``1:1e6:40-log``, EWMA at lambda 0.2 on grid ``0.5:5:40-log``)
and the script records medians, in CPU-s, of these stages:

* ``ingest_cold``: ``harness.ingest`` with no ingest-cache sidecar beside the
  file (a program without the cache parses every time);
* ``ingest_warm``: ``harness.ingest`` again, with the sidecar the cold call
  left (where the program writes one);
* ``content_hash``, ``detect`` (``harness.alarm_columns``), ``metrics``
  (``metrics.estimate`` for every threshold and metric) and ``emit``
  (``emit_curve`` to CSV and to SVG);
* ``curve_op``: one whole ``qcdeval curve`` call, sidecar present, as the
  benchmark's ``curve-gsr`` operation runs it.

It also records the process's peak RSS (``ru_maxrss``, MB of 2**20 bytes)
after each input's runs; it only grows, so the 20k figure holds both.

Every run stores a SHA-256 digest per input and detector of the content
hash, the ingest report and the CSV and SVG bytes. Within a run, the warm
ingest must give the cold one's dataset and the staged CSV and SVG must
equal those of the whole ``curve`` call. When the output file already holds
runs, a new run must reproduce their digests, or the script exits 1 and
leaves the file as it was. To time another checkout of the program into the same file, point
``--src`` at its ``src`` directory:

    python scripts/bench_ingest.py --label change
    python scripts/bench_ingest.py --label parent --src /path/to/parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SIZES = {"1k": (1_000, 15), "20k": (20_000, 5)}  # sequences, repeats
SEED = 1
MODEL_SPEC = "gaussian:0,0.1,0.1"
# The detectors timed, as their ``curve`` flags and threshold grids. CUSUM
# and EWMA are here because no other committed benchmark runs them at K=40.
DETECTORS = {
    "gsr": (["--detector", "gsr", "--model", MODEL_SPEC], "1:1e6:40-log"),
    "cusum": (["--detector", "cusum", "--model", MODEL_SPEC], "1:1e6:40-log"),
    "ewma": (["--detector", "ewma", "--ewma-lambda", "0.2"], "0.5:5:40-log"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="name of this run in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the qcdeval package to time (default: ./src)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_ingest.json")
    return p.parse_args(argv)


def _cpu(fn, *args):
    gc.collect()
    t0 = time.process_time()
    result = fn(*args)
    return result, time.process_time() - t0


def _input(qcdeval, folder: Path, n: int) -> Path:
    from qcdeval.detectors import LikelihoodModel

    spec = qcdeval.simulate.SimSpec(
        model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1),
        n_sequences=n, length_law=("uniform", 30, 300), changepoint_law=("uniform",),
        with_change_fraction=0.9, seed=SEED,
    )
    path = folder / "data.jsonl"
    qcdeval.simulate.save_jsonl(qcdeval.simulate.simulate(spec), path, sidecar=False)
    return path


def _sidecars(folder: Path):
    """Every hidden file beside the input: the ingest cache, where the
    program writes one."""
    return [p for p in folder.iterdir() if p.name.startswith(".")]


def _curve_argv(detector: str, data: Path, folder: Path):
    flags, grid = DETECTORS[detector]
    return ["curve", "--data", str(data), *flags, "--thresholds", grid,
            "--out", str(folder / "curve.csv"), "--svg", str(folder / "curve.svg")]


def _staged(qcdeval, detector: str, data: Path, folder: Path, times: dict):
    """One pass of the curve pipeline, stage by stage; returns the cold
    dataset and the CSV and SVG bytes."""
    from qcdeval import harness, metrics

    for p in _sidecars(folder):
        p.unlink()
    cold, times["ingest_cold"] = _cpu(harness.ingest, data)
    warm, times["ingest_warm"] = _cpu(harness.ingest, data)
    if (warm.content_hash() != cold.content_hash()
            or warm.ingest_report != cold.ingest_report):
        raise SystemExit(f"{data}: the warm ingest differs from the cold one")
    _, times["content_hash"] = _cpu(cold.content_hash)
    # The detector config that `qcdeval curve` builds from the same flags.
    args = qcdeval.cli.build_parser().parse_args(_curve_argv(detector, data, folder))
    config = qcdeval.cli._detector_config(args)
    grid = qcdeval.cli.parse_thresholds(args.thresholds)
    (lengths, nu, taus), times["detect"] = _cpu(harness.alarm_columns, cold, config, grid)

    def estimates():
        points = [
            harness.CurvePoint(thr, {name: metrics.estimate(name, lengths, nu, tau)
                                     for name in qcdeval.METRIC_NAMES})
            for thr, tau in zip(grid, taus.T)
        ]
        return harness.SweepResult(points, t_max=harness.observation_bounds(cold)[0])

    result, times["metrics"] = _cpu(estimates)

    def emit():
        harness.emit_curve(result, folder / "staged.csv")
        harness.emit_curve(result, folder / "staged.svg", fmt="svg")

    _, times["emit"] = _cpu(emit)
    return cold, (folder / "staged.csv").read_bytes(), (folder / "staged.svg").read_bytes()


def _curve_op(qcdeval, detector: str, data: Path, folder: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        rc, cpu = _cpu(qcdeval.cli.main, _curve_argv(detector, data, folder))
    if rc != 0:
        raise SystemExit(f"curve exited {rc}")
    return cpu, (folder / "curve.csv").read_bytes(), (folder / "curve.svg").read_bytes()


def _p50(xs):
    return round(statistics.median(xs), 5)


def measure(args) -> dict:
    # Idle BLAS threads spin and would be counted as CPU time; set before
    # numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import qcdeval
    import qcdeval.cli
    import qcdeval.simulate

    if src not in Path(qcdeval.__file__).resolve().parents:
        raise SystemExit(f"qcdeval was imported from {qcdeval.__file__}, not from {src}")

    inputs, digests = {}, {}
    folder = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    try:
        for size, (n, repeats) in SIZES.items():
            data = _input(qcdeval, folder, n)
            timed = {}
            for detector in DETECTORS:
                runs = defaultdict(list)
                for _ in range(repeats):
                    times = {}
                    dataset, csv_bytes, svg_bytes = _staged(qcdeval, detector, data, folder,
                                                            times)
                    times["curve_op"], op_csv, op_svg = _curve_op(qcdeval, detector, data,
                                                                  folder)
                    if (op_csv, op_svg) != (csv_bytes, svg_bytes):
                        raise SystemExit(f"{size}/{detector}: the staged curve differs "
                                         "from `qcdeval curve`")
                    for stage, cpu in times.items():
                        runs[stage].append(cpu)
                digest = hashlib.sha256()
                digest.update(dataset.content_hash().encode())
                digest.update(repr(dataset.ingest_report).encode())
                digest.update(csv_bytes + svg_bytes)
                digests[f"{size}/{detector}"] = digest.hexdigest()
                timed[detector] = {
                    "cpu_s_p50": {stage: _p50(xs) for stage, xs in runs.items()},
                    "cpu_s_runs": {stage: [round(x, 4) for x in xs]
                                   for stage, xs in runs.items()},
                }
            inputs[size] = {
                "sequences": n,
                "input_bytes": data.stat().st_size,
                "sidecar_bytes": sum(p.stat().st_size for p in _sidecars(folder)),
                "repeats": repeats,
                **timed,
                "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            }
            for p in folder.iterdir():
                p.unlink()
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    return {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
        "seed": SEED,
        "outputs_sha256": digests,
        "inputs": inputs,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else {}
    run = measure(args)
    for label, other in runs.items():
        for key, digest in run["outputs_sha256"].items():
            want = other["outputs_sha256"].get(key)
            if want is not None and want != digest:
                print(f"{key}: outputs differ from run {label!r}", file=sys.stderr)
                return 1
    runs[args.label] = run
    args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(json.dumps({"label": args.label,
                      **{f"{size}/{detector}": inp[detector]["cpu_s_p50"]
                         for size, inp in run["inputs"].items() for detector in DETECTORS}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
