"""The helper that ``scripts/bench_ingest.py`` and ``scripts/bench_oracle.py``
share: the digest-checked write of a run, and the ``Layers`` wrapper."""

import importlib.util
import json
import time
import types
from pathlib import Path

HELPER_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_common.py"


def _load_helper():
    spec = importlib.util.spec_from_file_location("bench_common", HELPER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(helper, out, label, digests):
    return helper.main(["--label", label, "--out", str(out)], "test run", "unused.json",
                       lambda args: {"outputs_sha256": digests, "cpu_s": 1.0},
                       lambda run: {})


def test_run_with_other_digest_leaves_file_as_it_was(tmp_path, capsys):
    helper = _load_helper()
    out = tmp_path / "BENCH.json"
    assert _main(helper, out, "parent", {"a": "1", "b": "2"}) == 0
    stored = out.read_bytes()
    assert _main(helper, out, "change", {"a": "1", "b": "3"}) == 1
    assert "b: outputs differ from run 'parent'" in capsys.readouterr().err
    assert out.read_bytes() == stored


def test_matching_run_is_written_under_its_label(tmp_path):
    helper = _load_helper()
    out = tmp_path / "BENCH.json"
    assert _main(helper, out, "parent", {"a": "1"}) == 0
    assert _main(helper, out, "change", {"a": "1", "new": "9"}) == 0
    runs = json.loads(out.read_text())["runs"]
    assert list(runs) == ["parent", "change"]
    assert runs["change"] == {"outputs_sha256": {"a": "1", "new": "9"}, "cpu_s": 1.0}


def test_wrapped_function_charges_the_current_label():
    helper = _load_helper()

    def spin(seconds):
        t0 = time.process_time()
        while time.process_time() - t0 < seconds:
            pass
        return seconds * 2

    owner = types.SimpleNamespace(spin=spin)
    seen = []
    layers = helper.Layers()
    layers.wrap(owner, "spin", "busy", lambda result, *args: seen.append((result, args)))
    layers.label = "first"
    assert owner.spin(0.02) == 0.04
    layers.label = "second"
    owner.spin(0.0)
    assert seen == [(0.04, (0.02,)), (0.0, (0.0,))]
    assert 0.02 <= layers.cpu_s["first"]["busy"] < 1.0
    assert layers.cpu_s["second"]["busy"] < 0.02
