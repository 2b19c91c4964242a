"""The three benchmark workloads.

Each workload makes its inputs from the workload seed, runs one operation
through a public entry point of qcdeval, and checks the operation's outputs
against the independent references in ``reference.py``. Calls into qcdeval
go through module attributes (``qcdeval.cli.main``, ``qcdeval.oracle.*``,
``qcdeval.simulate.*``) so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import qcdeval.cli
import qcdeval.oracle
import qcdeval.simulate
from qcdeval.detectors import DetectorConfig, LikelihoodModel

import reference

MODEL_SPEC = "gaussian:0,0.1,0.1"
MODEL = (0.0, 0.1, 0.1)  # mu0, mu1, var
N_SEQUENCES = 1000
REL_TOL = 1e-9
ORACLE_REFERENCE = Path(__file__).with_name("oracle_reference.json")


def _gauss():
    mu0, mu1, var = MODEL
    return LikelihoodModel(kind="gaussian", mu0=mu0, mu1=mu1, var=var)


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _check_estimate(label, got: dict, want, problems: list) -> None:
    """Compare one written estimate (value, sem, n_used, upper_limit,
    extrapolation_flag) to its reference tuple, or to None = undefined."""
    if want is None:
        want = (None, None, 0, None, False)
    value, sem, n_used, upper, flag = want
    for key, ref in (("value", value), ("sem", sem), ("upper_limit", upper)):
        if key in got and not _close(got[key], ref):
            problems.append(f"{label} {key}: got {got[key]!r}, reference {ref!r}")
    if got["n_used"] != n_used:
        problems.append(f"{label} n_used: got {got['n_used']}, reference {n_used}")
    if bool(got["extrapolation_flag"]) != bool(flag):
        problems.append(f"{label} extrapolation_flag: got {got['extrapolation_flag']}")


class CliWorkload:
    """A workload whose operation is one ``qcdeval`` CLI invocation on a
    generated JSONL dataset."""

    name = ""
    length_law: tuple = ()
    outputs: tuple = ()

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.data = workdir / "data.jsonl"
        self.dataset = None

    @property
    def spec(self):
        return qcdeval.simulate.SimSpec(
            model=_gauss(),
            n_sequences=N_SEQUENCES,
            length_law=self.length_law,
            changepoint_law=("uniform",),
            with_change_fraction=0.9,
            seed=self.seed,
        )

    def params(self) -> dict:
        return {"argv": ["qcdeval", *self.argv()], "sim_spec": self.spec.to_json()}

    def make_inputs(self) -> None:
        self.dataset = qcdeval.simulate.simulate(self.spec)
        qcdeval.simulate.save_jsonl(self.dataset, self.data)

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.workdir.glob("data.jsonl*"))

    def argv(self) -> list:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for name in self.outputs:
            (self.workdir / name).unlink(missing_ok=True)

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return qcdeval.cli.main(self.argv())

    def collect(self, rc) -> dict:
        paths = [self.workdir / name for name in self.outputs]
        return {p.name: p.read_bytes() for p in paths if p.exists()}

    def check(self, rc, outputs: dict) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        missing = [name for name in self.outputs if name not in outputs]
        if missing:
            return [f"missing outputs {missing}"]
        return self.check_outputs(outputs)

    def _metas(self):
        metas = self.dataset.metas
        nu = [m.changepoint_nu for m in metas]
        return nu, [m.length_T for m in metas]


class CurveGsr(CliWorkload):
    """Threshold sweep: GSR over a 40-point log grid, five metrics, CSV + SVG."""

    name = "curve-gsr"
    length_law = ("uniform", 30, 300)
    thresholds = "1:1e6:40-log"
    outputs = ("curve.csv", "curve.svg", "curve.csv.manifest.json")
    work_unit = "sequence*threshold"

    def argv(self):
        w = self.workdir
        return [
            "curve", "--data", str(self.data), "--detector", "gsr",
            "--model", MODEL_SPEC, "--thresholds", self.thresholds,
            "--out", str(w / "curve.csv"), "--svg", str(w / "curve.svg"),
        ]

    def prepare_reference(self) -> dict:
        self.grid = np.geomspace(1.0, 1e6, 40)
        taus, gap = reference.gsr_alarm_times(self.dataset.values, MODEL, self.grid)
        nu, length = self._metas()
        self.expected = [reference.metric_reference(nu, length, t) for t in taus]
        self.work_per_op = len(self.dataset) * self.grid.size
        return {"gsr_min_log_tie_gap": gap}

    def check_outputs(self, outputs):
        problems = []
        rows = list(csv.DictReader(io.StringIO(outputs["curve.csv"].decode())))
        if len(rows) != 5 * self.grid.size:
            return [f"curve.csv has {len(rows)} rows, expected {5 * self.grid.size}"]
        for i, row in enumerate(rows):
            k, j = divmod(i, 5)
            thr = float(row["threshold"])
            if not _close(thr, float(self.grid[k])) or row["metric"] != qcdeval.METRIC_NAMES[j]:
                problems.append(f"curve.csv row {i + 2}: unexpected {row['threshold']},{row['metric']}")
                continue
            got = {
                "value": float(row["value"]) if row["value"] else None,
                "sem": float(row["sem"]) if row["sem"] else None,
                "n_used": int(row["n_used"]),
                "extrapolation_flag": int(row["extrapolation_flag"]),
            }
            _check_estimate(f"h={thr:g} {row['metric']}", got, self.expected[k][row["metric"]], problems)
        svg = ET.fromstring(outputs["curve.svg"])
        for fam in ("km", "lb"):
            want = sum(
                e[f"{fam}-arl"] is not None and e[f"{fam}-add"] is not None
                for e in self.expected
            )
            got = sum(1 for el in svg.iter() if el.get("class") == f"marker-{fam}")
            if got != want:
                problems.append(f"curve.svg has {got} {fam} markers, reference {want}")
        return problems


class EvaluateWindow(CliWorkload):
    """One threshold of the model-free Gaussian-cost window scan on long
    sequences."""

    name = "evaluate-window"
    length_law = ("uniform", 500, 1500)
    window, burn_in, threshold = 30, 30, 5.0
    outputs = ("metrics.json", "metrics.json.manifest.json")
    work_unit = "frame"

    def argv(self):
        return [
            "evaluate", "--data", str(self.data), "--detector", "window-normal",
            "--threshold", repr(self.threshold),
            "--out", str(self.workdir / "metrics.json"),
        ]

    def prepare_reference(self) -> dict:
        tau = [
            reference.window_normal_alarm(v, self.window, self.burn_in, self.threshold)
            for v in self.dataset.values
        ]
        nu, length = self._metas()
        self.expected = reference.metric_reference(nu, length, tau)
        self.work_per_op = int(sum(length))
        return {"window_alarms": int(np.isfinite(tau).sum())}

    def check_outputs(self, outputs):
        problems = []
        got = json.loads(outputs["metrics.json"])
        if sorted(got) != sorted(qcdeval.METRIC_NAMES):
            return [f"metrics.json has metrics {sorted(got)}"]
        for name, est in got.items():
            _check_estimate(name, est, self.expected[name], problems)
        return problems


class OracleMc:
    """One batch of the Monte-Carlo oracles: true ARL, true ADD at four
    thresholds and the bias-bound containment cells of acceptance
    criterion 2."""

    name = "oracle-mc"
    work_unit = "replication"
    arl = {"threshold": 126.0, "n_reps": 20_000, "horizon_cap": 20_000, "chunk": 128}
    add = {"thresholds": (60.0, 100.0, 200.0, 400.0), "law": ("geometric", 0.001),
           "n_reps": 20_000, "horizon_cap": 60_000}
    bias = {"families": (("exp:1", "unif:0,2"), ("unif:0,1", "exp:1")),
            "n": (5, 20, 100), "a": (0.5, 1.0), "mc_reps": 10_000}

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.work_per_op = (
            self.arl["n_reps"]
            + self.add["n_reps"] * len(self.add["thresholds"])
            + self.bias["mc_reps"] * len(self.cells())
        )

    def cells(self):
        return [
            (fam, event, censor, n, a)
            for fam, (event, censor) in enumerate(self.bias["families"])
            for n in self.bias["n"]
            for a in self.bias["a"]
        ]

    def params(self) -> dict:
        return {"arl": self.arl, "add": self.add, "bias": self.bias,
                "seeds": {"mc": self.seed, "bias_bounds": [2 * self.seed, 2 * self.seed + 1]}}

    def make_inputs(self) -> None:
        pass

    def input_bytes(self) -> int:
        return 0

    def prepare_reference(self) -> dict:
        self.expected = json.loads(ORACLE_REFERENCE.read_text())
        return {"oracle_reference": ORACLE_REFERENCE.name}

    def clear_outputs(self) -> None:
        pass

    def op(self):
        return self.run(self.seed)

    def run(self, seed: int):
        """The oracle batch at one seed: (arl, [add per threshold], [cells])."""
        model = _gauss()
        arl_cfg = DetectorConfig(kind="gsr", threshold=self.arl["threshold"], model=model)
        arl = qcdeval.oracle.true_arl_mc(
            model, arl_cfg, n_reps=self.arl["n_reps"], horizon_cap=self.arl["horizon_cap"],
            seed=seed, chunk=self.arl["chunk"],
        )
        adds = [
            qcdeval.oracle.true_add_mc(
                model, DetectorConfig(kind="gsr", threshold=thr, model=model),
                self.add["law"], n_reps=self.add["n_reps"],
                horizon_cap=self.add["horizon_cap"], seed=seed,
            )
            for thr in self.add["thresholds"]
        ]
        cells = [
            qcdeval.oracle.bias_bounds(
                qcdeval.oracle.Dist.parse(event), qcdeval.oracle.Dist.parse(censor),
                n=n, a=a, mc_reps=self.bias["mc_reps"], seed=2 * seed + fam,
            )
            for fam, event, censor, n, a in self.cells()
        ]
        return arl, adds, cells

    def collect(self, result) -> dict:
        return {"result": repr(result).encode()}

    def check(self, result, outputs) -> list:
        arl, adds, cells = result
        problems = []
        ref = self.expected

        def near(label, value, sem, want):
            tol = 4.0 * math.hypot(sem, want["sem"])
            if not abs(value - want["value"]) <= tol:
                problems.append(f"{label}: {value:.6g} is {abs(value - want['value']):.3g} "
                                f"from recorded {want['value']:.6g} (4 SEM = {tol:.3g})")

        near("true_arl_mc", arl.value, arl.sem, ref["true_arl_mc"])
        for thr, est in zip(self.add["thresholds"], adds):
            near(f"true_add_mc h={thr:g}", est.value, est.sem, ref["true_add_mc"][repr(thr)])
        for (fam, _, _, n, a), rep, want in zip(self.cells(), cells, ref["bias_bounds"]):
            label = f"bias_bounds family {fam} n={n} a={a}"
            if not rep.contained:
                problems.append(f"{label}: not contained")
            if not (_close(rep.lower, want["lower"]) and _close(rep.upper, want["upper"])):
                problems.append(f"{label}: bounds [{rep.lower!r}, {rep.upper!r}] differ "
                                f"from recorded [{want['lower']!r}, {want['upper']!r}]")
            near(label + " mc_bias", rep.mc_bias, rep.mc_ci_halfwidth / 3.0,
                 {"value": want["mc_bias"], "sem": want["mc_sem"]})
        return problems


WORKLOADS = {wl.name: wl for wl in (CurveGsr, EvaluateWindow, OracleMc)}
