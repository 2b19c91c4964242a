"""What the bench scripts share: the command line, the import of ``qcdeval``
from ``--src``, the ``machine`` block, medians, the ``Layers`` wrapper and
the digest-checked write of a run."""

import argparse
import functools
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_qcdeval(src: Path) -> None:
    """Import ``qcdeval`` from ``src`` with one BLAS thread: idle BLAS threads
    spin and would be counted as CPU time. Child processes inherit the env."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = src.resolve()
    sys.path.insert(0, str(src))
    import qcdeval

    if src not in Path(qcdeval.__file__).resolve().parents:
        raise SystemExit(f"qcdeval was imported from {qcdeval.__file__}, not from {src}")


def machine() -> dict:
    import numpy as np

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def p50(xs):
    return round(statistics.median(xs), 5)


class Layers:
    """CPU-s of wrapped functions, charged to the label that is current when
    they run."""

    def __init__(self):
        self.label = None
        self.cpu_s = defaultdict(lambda: defaultdict(float))  # label -> layer -> s

    def wrap(self, owner, name, layer, observe=None):
        """Replace ``owner.name`` (a module function or a method) by a timed
        call; ``observe(result, *args)`` then sees each call's result."""
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.process_time()
            result = fn(*args, **kwargs)
            self.cpu_s[self.label][layer] += time.process_time() - t0
            if observe is not None:
                observe(result, *args)
            return result

        setattr(owner, name, timed)


def main(argv, doc: str, out_name: str, measure, summary) -> int:
    """Write ``measure(args)`` under ``--label`` and print ``summary(run)``,
    unless an ``outputs_sha256`` digest differs from the same key of a run
    already in the file: then return 1 and leave the file as it was."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--label", required=True, help="name of this run in the output file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the qcdeval package to time (default: ./src)")
    p.add_argument("--out", type=Path, default=ROOT / out_name)
    args = p.parse_args(argv)
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
    print(json.dumps({"label": args.label, **summary(run)}))
    return 0
