"""The benchmark's traced runs (``qcdbench/spans.py``) wrap qcdeval functions
by module attribute. Every name they wrap must exist, and leaving a traced
block must put the original functions back."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "qcdbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("qcdbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
