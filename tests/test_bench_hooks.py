"""The benchmark's traced runs (``qcdbench/spans.py``) wrap qcdeval functions
by module attribute. Every name they wrap must exist, and leaving a traced
block must put the original functions back. Its untraced reads
(``qcdbench/run.py``, ``qcdbench/workloads.py``) must keep working too."""

import importlib.util
import inspect
from pathlib import Path

import qcdeval
import qcdeval.cli
import qcdeval.oracle
from qcdeval.detectors import DetectorConfig

BENCH_DIR = Path(__file__).resolve().parents[1] / "qcdbench"
SPANS_PATH = BENCH_DIR / "spans.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"qcdbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load(SPANS_PATH)


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_names_exist_and_are_restored():
    spans = _load_spans()
    targets = [(owner, attr) for owner, attr, _, _ in spans._targets()]
    names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets}
    for name in (
        "qcdeval.harness.run_detector",
        "qcdeval.harness.compute_metric",
        "qcdeval.metrics.fit_km",
        "qcdeval.cli.run_all",
        "qcdeval._kernels.gsr_first_alarm",
    ):
        assert name in names
    originals = [_lookup(owner, attr) for owner, attr in targets]
    with spans.traced(spans.Tracer()):
        for (owner, attr), fn in zip(targets, originals):
            assert _lookup(owner, attr) is not fn, f"{attr} not wrapped"
    for (owner, attr), fn in zip(targets, originals):
        assert _lookup(owner, attr) is fn, f"{attr} not restored"


def test_untraced_reads_keep_working(monkeypatch):
    # run.py records qcdeval.USING_COMPILED and qcdeval.__version__; the
    # workloads call cli.main and the oracles directly. The oracle calls are
    # checked by binding them to the signatures, without running them, with
    # the detector config holding the very model object the oracle is given.
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # workloads.py imports reference
    workloads = _load(BENCH_DIR / "workloads.py")
    assert isinstance(qcdeval.USING_COMPILED, bool)
    assert isinstance(qcdeval.__version__, str)
    assert callable(qcdeval.cli.main) and len(qcdeval.METRIC_NAMES) == 5
    wl, model = workloads.OracleMc, workloads._gauss()
    config = DetectorConfig(kind="gsr", threshold=wl.arl["threshold"], model=model)
    inspect.signature(qcdeval.oracle.true_arl_mc).bind(
        model, config, n_reps=wl.arl["n_reps"], horizon_cap=wl.arl["horizon_cap"],
        seed=1, chunk=wl.arl["chunk"])
    inspect.signature(qcdeval.oracle.true_add_mc).bind(
        model, config, wl.add["law"], n_reps=wl.add["n_reps"],
        horizon_cap=wl.add["horizon_cap"], seed=1)
    event, censor = (qcdeval.oracle.Dist.parse(d) for d in wl.bias["families"][0])
    inspect.signature(qcdeval.oracle.bias_bounds).bind(
        event, censor, n=wl.bias["n"][0], a=wl.bias["a"][0],
        mc_reps=wl.bias["mc_reps"], seed=2)
