#!/usr/bin/env python3
"""qcdeval benchmark: one workload per process, checked, timed end to end.

    python3 qcdbench/run.py --workload curve-gsr --seed 1 --seconds 55 --trace 0
    python3 qcdbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric named in BENCHMARK.json; with --trace 1 every per-layer
metric instead. See qcdbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("curve-gsr", "evaluate-window", "oracle-mc")
# Environment variables that silently change the program being measured.
REFUSED_ENV = ("QCD_EVAL_WORKERS", "QCDEVAL_BACKEND")
# One BLAS thread: idle OpenBLAS threads spin, and their spinning would be
# counted in the operations' CPU time. Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_REPS = 7
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import qcdeval; print(time.process_time() - t)"
)


class Refused(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


class FailureCounter(logging.Handler):
    """Counts the ``detector failed on ...`` records that qcdeval.harness logs
    when it turns a detector exception into a censored observation."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("detector failed on"):
            self.count += 1


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    set_env = [name for name in REFUSED_ENV if name in os.environ]
    if set_env:
        raise Refused(f"unset {', '.join(set_env)}: it changes the program being measured")
    if not (SRC / "qcdeval" / "__init__.py").is_file():
        raise Refused(f"no qcdeval sources under {SRC.relative_to(ROOT)}/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import qcdeval

    if SRC not in Path(qcdeval.__file__).resolve().parents:
        raise Refused(f"qcdeval was imported from {qcdeval.__file__}, not from ./src")
    return qcdeval


def _import_seconds() -> float:
    """CPU seconds of `import qcdeval` in a fresh interpreter (the process
    start is not counted)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _host_steal_s():
    """CPU seconds the hypervisor gave to other guests, summed over this
    machine's CPUs (the steal column of /proc/stat), or None where that
    file is missing."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _self_test(qcdeval, workdir: Path, counter: FailureCounter) -> dict:
    """Bivariate data under gsr must register as failed operations, either
    through the harness log records or through a non-zero exit."""
    data = workdir / "selftest.jsonl"
    with open(data, "w") as fh:
        for i in range(3):
            fh.write(json.dumps({"id": f"biv{i}", "values": [[0.1 * i, 0.2]] * 20, "nu": None}))
            fh.write("\n")
    argv = ["evaluate", "--data", str(data), "--detector", "gsr",
            "--model", "gaussian:0,0.1,0.1", "--threshold", "10",
            "--out", str(workdir / "selftest.json")]
    before = counter.count
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = qcdeval.cli.main(argv)
        except Exception as exc:  # an exception is a loud failure: what we want
            rc = f"exception {type(exc).__name__}"
    seen = counter.count - before
    if rc == 0 and seen != 3:
        raise RuntimeError(
            f"self-test: 3 bivariate sequences under gsr exited 0 with {seen} "
            "detector failure record(s); a crash would count as censored"
        )
    return {"exit": rc, "detector_failures": seen}


def _environment(qcdeval, args, wl, ref_info, selftest) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "qcdeval": qcdeval.__version__,
        "using_compiled": bool(qcdeval.USING_COMPILED),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
        "input_bytes": wl.input_bytes(),
        "work_per_op": wl.work_per_op,
        "work_unit": wl.work_unit,
        "reference": ref_info,
        "self_test": selftest,
    }


def _setup(wl, trace: bool, spans):
    """Median `import qcdeval` CPU time over IMPORT_REPS fresh interpreters
    plus the median CPU time to make the inputs over SETUP_REPS; when
    tracing, also the span reductions of the input runs."""
    import_s = statistics.median(_import_seconds() for _ in range(IMPORT_REPS))
    inputs, reductions = [], []
    for _ in range(SETUP_REPS):
        tracer = spans.Tracer() if trace else None
        with spans.traced(tracer) if trace else contextlib.nullcontext():
            start, cpu_start = time.perf_counter(), time.process_time()
            wl.make_inputs()
            elapsed = time.perf_counter() - start
        inputs.append(time.process_time() - cpu_start)
        if trace:
            reductions.append(spans.reduce_spans(tracer.spans, elapsed))
    inputs_s = statistics.median(inputs)
    print(f"setup: import {import_s:.4f} s + inputs {inputs_s:.4f} s (CPU, medians of "
          f"{IMPORT_REPS} and {SETUP_REPS})", flush=True)
    return import_s + inputs_s, reductions


def _measure(wl, seconds, trace, counter, spans):
    """Run operations until the next one would end past the deadline. The
    first is a warm-up: checked, but left out of the timings. After it,
    with tracing, untraced and traced operations alternate (at least one
    each)."""
    ops = []
    first_outputs = None
    deadline = time.perf_counter() + seconds
    while True:
        walls = [op["wall"] for op in ops]
        if len(ops) >= (3 if trace else 2) and (
            time.perf_counter() + statistics.median(walls) > deadline
        ):
            break
        warmup = not ops
        traced = trace and len(ops) % 2 == 0 and not warmup
        wl.clear_outputs()
        gc.collect()
        tracer = spans.Tracer() if traced else None
        before = counter.count
        problems, result = [], None
        with spans.traced(tracer) if traced else contextlib.nullcontext():
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                result = wl.op()
            except Exception as exc:
                problems.append(f"exception {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        failures = counter.count - before
        if failures:
            problems.append(f"{failures} 'detector failed on' record(s) logged")
        if not problems:
            try:
                outputs = wl.collect(result)
                problems += wl.check(result, outputs)
            except Exception as exc:
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
            else:
                if first_outputs is None:
                    first_outputs = outputs
                elif outputs != first_outputs:
                    changed = sorted(k for k in outputs if outputs[k] != first_outputs.get(k))
                    problems.append(f"outputs differ from the first operation: {changed}")
        op = {"wall": wall, "cpu": cpu, "warmup": warmup, "traced": traced,
              "failures": failures, "problems": problems}
        if traced:
            op["layers"] = spans.reduce_spans(tracer.spans, wall)
        ops.append(op)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
        kind = " warm-up" if warmup else " traced" if traced else ""
        print(f"op {len(ops)}{kind}: {wall:.4f} s wall, "
              f"{cpu:.4f} s cpu, {status}", flush=True)
    return ops


def _timed(ops):
    """The untraced operations after the warm-up."""
    return [op for op in ops if not op["traced"] and not op["warmup"]]


def _end_to_end(wl, ops, setup_s) -> dict:
    timed = _timed(ops)
    cpus = [op["cpu"] for op in timed]
    passed = sum(1 for op in timed if not op["problems"])
    return {
        "work_per_cpu_s": passed * wl.work_per_op / sum(cpus),
        "op_cpu_s_p50": statistics.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": sum(1 for op in ops if not op["problems"]) / len(ops),
    }


def _per_layer(spans, names, ops, setup_reductions) -> dict:
    traced = [op for op in ops if op["traced"]]
    plain = [op["cpu"] for op in _timed(ops)]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = statistics.median(op["cpu"] for op in traced) / statistics.median(plain) - 1.0
        elif name == "trace.accounted_frac":
            out[name] = statistics.median(op["layers"]["trace"]["accounted"] for op in traced)
        elif name == "harness.detector_failures":
            out[name] = statistics.median(op["failures"] for op in traced)
        elif name.startswith("simulate.simulate.") or name.startswith("simulate.save_jsonl."):
            out[name] = (
                statistics.median(spans.layer_value(r, name) for r in setup_reductions)
                if setup_reductions else 0.0
            )
        else:
            out[name] = statistics.median(spans.layer_value(op["layers"], name) for op in traced)
    return out


def run_one(args) -> int:
    try:
        qcdeval = _import_program()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import spans
    import workloads

    counter = FailureCounter()
    logging.getLogger("qcdeval.harness").addHandler(counter)
    trace = bool(args.trace)
    work_root = ROOT / ".qcdbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        selftest = _self_test(qcdeval, workdir, counter)
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        setup_s, setup_reductions = _setup(wl, trace, spans)
        ref_info = wl.prepare_reference()
        env = _environment(qcdeval, args, wl, ref_info, selftest)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        steal = _host_steal_s()
        ops = _measure(wl, args.seconds, trace, counter, spans)
        if steal is not None:
            steal = _host_steal_s() - steal
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failed = sum(1 for op in ops if op["problems"])
    if trace:
        declared = spec["per_layer"]
        values = _per_layer(spans, [m["name"] for m in declared], ops, setup_reductions)
    else:
        declared = spec["end_to_end"]
        values = _end_to_end(wl, ops, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    timed = _timed(ops)
    for name, m in metrics.items():
        note = f"  (median of {len(timed)} ops)" if name == "op_cpu_s_p50" else ""
        if name == "work_per_cpu_s":
            note = f"  ({wl.work_unit} per CPU second)"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    walls = [op["wall"] for op in timed]
    print(f"wall seconds per op (not a metric): median {statistics.median(walls):.4f} s "
          f"of {len(walls)} ops, {wl.work_per_op * len(walls) / sum(walls):.6g} "
          f"{wl.work_unit} per second")
    print(f"fail_frac {failed}/{len(ops)}")
    if steal is not None:
        print(f"host steal during the operations: {steal:.2f} CPU-s over "
              f"{sum(op['wall'] for op in ops):.1f} s (not a metric; high values mean a noisy host)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload, each in its own process, one after the other."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.update(BLAS_ENV)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
