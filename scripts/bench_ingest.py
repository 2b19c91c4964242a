#!/usr/bin/env python3
"""CPU time of ``qcdeval curve`` stage by stage, with and without the ingest
cache.

The inputs are made like the benchmark's ``curve-gsr`` workload: Gaussian
N(0, 0.1) -> N(0.1, 0.1) sequences of uniform(30, 300) frames, a uniform
changepoint in 90% of them, seed 1, written with ``save_jsonl``; one input of
1000 sequences and one of 20k. Each repeat, for each detector of
``DETECTORS`` (GSR and CUSUM on grid ``1:1e6:40-log``, EWMA at lambda 0.2 on
grid ``0.5:5:40-log``), makes two real ``qcdeval curve`` calls (all five
metrics, CSV and SVG): a cold one, with the ingest-cache sidecar deleted
first, then a warm one. The stages are the functions ``curve`` calls,
wrapped in place by ``bench_common.Layers``, and the script records their
medians in CPU-s:

* ``ingest_cold`` and ``ingest_warm``: ``cli.ingest`` in the cold and in the
  warm call (a program without the cache parses both times);
* from the warm call: ``content_hash`` (``LabeledDataset.content_hash``),
  ``detect`` (``harness.alarm_columns``), ``metrics`` (``cli.sweep`` less
  ``detect``) and ``emit`` (``cli.emit_curve``, to CSV and to SVG);
* ``curve_op``: the whole warm call, as the benchmark's ``curve-gsr``
  operation runs it.

Per input and detector it also records ``maxrss_mb``, the peak RSS (MB of
2**20 bytes, the child's ``VmHWM``) of one warm ``curve`` in a fresh child
process.

Every run stores a SHA-256 digest per input and detector of the content
hash, the ingest report and the CSV and SVG bytes. Within a run, the warm
ingest must give the cold one's content hash and ingest report, and the two
calls must write the same CSV and SVG bytes. When the output file already
holds runs, a new run must reproduce their digests, or the script exits 1
and leaves the file as it was. To time another checkout of the program into
the same file, point ``--src`` at its ``src`` directory:

    python scripts/bench_ingest.py --label change
    python scripts/bench_ingest.py --label parent --src /path/to/parent/src
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import bench_common

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


def _input(folder: Path, n: int) -> Path:
    from qcdeval.detectors import LikelihoodModel
    from qcdeval.simulate import SimSpec, save_jsonl, simulate

    spec = SimSpec(
        model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1),
        n_sequences=n, length_law=("uniform", 30, 300), changepoint_law=("uniform",),
        with_change_fraction=0.9, seed=SEED,
    )
    path = folder / "data.jsonl"
    save_jsonl(simulate(spec), path, sidecar=False)
    return path


def _sidecars(folder: Path):
    """Every hidden file beside the input: the ingest cache, where the
    program writes one."""
    return [p for p in folder.iterdir() if p.name.startswith(".")]


def _curve_argv(detector: str, data: Path, folder: Path):
    flags, grid = DETECTORS[detector]
    return ["curve", "--data", str(data), *flags, "--thresholds", grid,
            "--out", str(folder / "curve.csv"), "--svg", str(folder / "curve.svg")]


def _curve(cli, layers, call: str, detector: str, data: Path, folder: Path):
    """One ``qcdeval curve`` call, its stages charged to ``call``; returns its
    CPU-s and the CSV and SVG bytes."""
    layers.label = call
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        rc = cli.main(_curve_argv(detector, data, folder))
        cpu = time.process_time() - t0
    if rc != 0:
        raise SystemExit(f"curve exited {rc}")
    return cpu, (folder / "curve.csv").read_bytes(), (folder / "curve.svg").read_bytes()


# Runs ``qcdeval curve`` and prints the process's peak RSS (VmHWM, kB). The
# child's rusage would not do: on Linux, exec records the spawning process's
# peak RSS in the child's ``ru_maxrss``, so that figure is never below this
# script's own peak.
_CHILD = """import re, sys
from qcdeval.cli import main
rc = main(sys.argv[1:])
print(re.search(r"VmHWM:\\s*(\\d+) kB", open("/proc/self/status").read())[1], file=sys.stderr)
sys.exit(rc)
"""


def _child_maxrss_mb(src: Path, detector: str, data: Path, folder: Path) -> float:
    """Peak RSS of one ``qcdeval curve`` in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *_curve_argv(detector, data, folder)],
                          cwd=folder, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"curve in a child process exited {proc.returncode}: {proc.stderr}")
    return round(int(proc.stderr.split()[-1]) / 1024, 1)


def measure(args) -> dict:
    bench_common.import_qcdeval(args.src)
    from qcdeval import cli, harness, simulate

    layers, kept = bench_common.Layers(), {}  # kept: (call, stage) -> result

    def keep(stage):
        def observe(result, *args):
            kept[layers.label, stage] = result
        return observe

    layers.wrap(cli, "ingest", "ingest", keep("ingest"))
    layers.wrap(simulate.LabeledDataset, "content_hash", "content_hash", keep("content_hash"))
    layers.wrap(harness, "alarm_columns", "detect")
    layers.wrap(cli, "sweep", "sweep")
    layers.wrap(cli, "emit_curve", "emit")

    inputs, digests = {}, {}
    folder = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    try:
        for size, (n, repeats) in SIZES.items():
            data = _input(folder, n)
            timed = {}
            for detector in DETECTORS:
                runs = defaultdict(list)
                for _ in range(repeats):
                    layers.cpu_s.clear()
                    for p in _sidecars(folder):
                        p.unlink()
                    _, *cold_bytes = _curve(cli, layers, "cold", detector, data, folder)
                    op, csv_bytes, svg_bytes = _curve(cli, layers, "warm", detector, data, folder)
                    report = kept["warm", "ingest"].ingest_report
                    if (kept["warm", "content_hash"] != kept["cold", "content_hash"]
                            or report != kept["cold", "ingest"].ingest_report):
                        raise SystemExit(f"{data}: the warm ingest differs from the cold one")
                    if cold_bytes != [csv_bytes, svg_bytes]:
                        raise SystemExit(f"{size}/{detector}: the cold and the warm curve "
                                         "wrote different files")
                    cold, warm = layers.cpu_s["cold"], layers.cpu_s["warm"]
                    times = {"ingest_cold": cold["ingest"], "ingest_warm": warm["ingest"],
                             "content_hash": warm["content_hash"], "detect": warm["detect"],
                             "metrics": warm["sweep"] - warm["detect"], "emit": warm["emit"],
                             "curve_op": op}
                    for stage, cpu in times.items():
                        runs[stage].append(cpu)
                digest = hashlib.sha256()
                digest.update(kept["warm", "content_hash"].encode())
                digest.update(repr(report).encode())
                digest.update(csv_bytes + svg_bytes)
                digests[f"{size}/{detector}"] = digest.hexdigest()
                timed[detector] = {
                    "cpu_s_p50": {stage: bench_common.p50(xs) for stage, xs in runs.items()},
                    "cpu_s_runs": {stage: [round(x, 4) for x in xs]
                                   for stage, xs in runs.items()},
                    "maxrss_mb": _child_maxrss_mb(args.src.resolve(), detector, data, folder),
                }
            inputs[size] = {
                "sequences": n,
                "input_bytes": data.stat().st_size,
                "sidecar_bytes": sum(p.stat().st_size for p in _sidecars(folder)),
                "repeats": repeats,
                **timed,
            }
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    return {
        "machine": bench_common.machine(),
        "seed": SEED,
        "outputs_sha256": digests,
        "inputs": inputs,
    }


def main(argv=None) -> int:
    return bench_common.main(
        argv, __doc__, "BENCH_ingest.json", measure,
        lambda run: {f"{size}/{detector}": inp[detector]["cpu_s_p50"]
                     for size, inp in run["inputs"].items() for detector in DETECTORS})


if __name__ == "__main__":
    sys.exit(main())
