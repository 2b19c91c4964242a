import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcdeval
from qcdeval.cli import (
    CliError,
    main,
    parse_family_pair,
    parse_model,
    parse_thresholds,
)
from qcdeval.detectors import LikelihoodModel
from qcdeval.simulate import SimSpec


@pytest.fixture()
def spec_file(tmp_path):
    spec = SimSpec(
        model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1),
        n_sequences=80,
        length_law=("uniform", 20, 80),
        changepoint_law=("uniform",),
        with_change_fraction=0.5,
        seed=9,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    return path


@pytest.fixture()
def data_file(tmp_path, spec_file):
    out = tmp_path / "data.jsonl"
    assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


class TestParsers:
    def test_model(self):
        m = parse_model("gaussian:0,0.1,0.1")
        assert (m.mu0, m.mu1, m.var) == (0.0, 0.1, 0.1)
        p = parse_model("poisson:1,4")
        assert (p.lam0, p.lam1) == (1.0, 4.0)
        with pytest.raises(CliError):
            parse_model("gaussian:1")
        with pytest.raises(CliError):
            parse_model("cauchy:0,1")

    def test_thresholds(self):
        grid = parse_thresholds("1:100:3-log")
        assert grid == pytest.approx([1.0, 10.0, 100.0])
        lin = parse_thresholds("0:10:3-lin")
        assert lin == pytest.approx([0.0, 5.0, 10.0])
        assert parse_thresholds("2,4,8") == [2.0, 4.0, 8.0]
        with pytest.raises(CliError):
            parse_thresholds("1:100:0-log")
        with pytest.raises(CliError):
            parse_thresholds("")

    def test_family_pair(self):
        ev, ce = parse_family_pair("exp:1,unif:0,2")
        assert ev.kind == "exp" and ce.kind == "unif"
        ev2, ce2 = parse_family_pair("unif:0,1,exp:1")
        assert ev2.kind == "unif" and ce2.kind == "exp"
        with pytest.raises(CliError):
            parse_family_pair("exp:1")


class TestSubcommands:
    def test_simulate_writes_manifest_and_data(self, tmp_path, spec_file):
        out = tmp_path / "d.jsonl"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(out.read_text().splitlines()) == 80

    def test_evaluate_hand_pipeline(self, tmp_path):
        # Degenerate model (mu0 == mu1) gives llr == 0 and R(t) = t + 1, so
        # every sequence alarms deterministically at frame 3.
        data = tmp_path / "d.jsonl"
        rows = [
            {"id": "a", "values": [0.0] * 10, "nu": None},
            {"id": "b", "values": [0.0] * 10, "nu": 5},
            {"id": "c", "values": [0.0] * 6, "nu": None},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "m.json"
        code = main(
            [
                "evaluate",
                "--data", str(data),
                "--detector", "gsr",
                "--model", "gaussian:0,0,1",
                "--threshold", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        # llr == 0 so R(t) = t + 1: alarm at frame 3 on every sequence.
        # ARL samples: (3,e) x2 and (3,e? ...) all alarm at 3 -> KM-ARL = 3.
        assert obj["km-arl"]["value"] == pytest.approx(3.0)
        assert obj["km-arl"]["n_used"] == 3

    def test_evaluate_threshold_zero(self, tmp_path):
        # Threshold 0 is a valid threshold, not "unset": GSR alarms at frame
        # 0 on every sequence.
        data = tmp_path / "d.jsonl"
        rows = [
            {"id": "a", "values": [0.0] * 10, "nu": None},
            {"id": "b", "values": [0.0] * 10, "nu": 5},
            {"id": "c", "values": [0.0] * 6, "nu": None},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "m.json"
        code = main(
            [
                "evaluate",
                "--data", str(data),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["lb-arl"]["value"] == 0.0
        assert obj["km-arl"]["value"] == 0.0
        assert obj["km-arl"]["n_used"] == 3

    def test_ewma_zero_burn_in_exit_2(self, tmp_path, data_file):
        code = main(
            [
                "evaluate",
                "--data", str(data_file),
                "--detector", "ewma",
                "--burn-in", "0",
                "--threshold", "3",
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "head", [[-1.5e308, 0.5e308, -1e308, 0.0], [1e200, -1e200, 0.0, 1.0]], ids=["mean", "sd"]
    )
    def test_ewma_overflowing_burn_in_exit_2(self, tmp_path, capsys, head):
        # Finite frames whose burn-in mean or sd overflows float64: the control
        # limits would not be finite, and the sequence would never alarm.
        data = tmp_path / "d.jsonl"
        rows = [{"id": "a", "values": [0.0, 1.0, 0.0, 1.0, 9.0], "nu": None},
                {"id": "b", "values": head + [0.0, 1e300], "nu": None}]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code = main(["evaluate", "--data", str(data), "--detector", "ewma", "--burn-in", "4",
                     "--threshold", "3", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "sequence 'b': ewma burn-in mean" in capsys.readouterr().err

    def test_curve_and_svg(self, tmp_path, data_file):
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        code = main(
            [
                "curve",
                "--data", str(data_file),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--thresholds", "2:50:5-log",
                "--out", str(out),
                "--svg", str(svg),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 5
        assert svg.read_text().startswith("<svg")
        # A sweep reads its grid, never config.threshold.
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["config"]["detector_config"]["threshold"] is None

    def test_curve_empty_grid_exit_2(self, tmp_path, data_file):
        code = main(
            [
                "curve",
                "--data", str(data_file),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--thresholds", "",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2

    def test_survival_export(self, tmp_path, data_file):
        out = tmp_path / "surv.csv"
        code = main(
            [
                "survival",
                "--data", str(data_file),
                "--detector", "cusum",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "3",
                "--kind", "arl",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "t,S,n_at_risk,d"

    def test_oracle_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "oracle",
                "--model", "gaussian:0,0.1,0.1",
                "--detector", "gsr",
                "--threshold", "20",
                "--reps", "2000",
                "--horizon-cap", "10000",
            ]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["true_arl"] > 0

    def test_verify_bounds_pass(self, capsys):
        code = main(
            [
                "verify-bounds",
                "--family", "exp:1,unif:0,2",
                "--n", "5",
                "--a", "1.0",
                "--reps", "4000",
            ]
        )
        assert code == 0
        assert "contained" in capsys.readouterr().out

    def test_verify_bounds_no_censoring(self, capsys):
        # Censoring law supported above the horizon: zero bounds, contained.
        code = main(
            [
                "verify-bounds",
                "--family", "exp:1,unif:5,6",
                "--n", "5",
                "--a", "1.0",
                "--reps", "2000",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_oracle_degenerate_reps_exit_2(self, tmp_path, capsys, reps):
        # No mean, or no standard error, from fewer than two replications:
        # neither a ZeroDivisionError traceback nor a NaN in the JSON.
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle",
                "--model", "gaussian:0,0.1,0.1",
                "--detector", "gsr",
                "--threshold", "20",
                "--reps", reps,
                "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"n_reps must be >= 2, got {reps}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_verify_bounds_degenerate_reps_exit_2(self, capsys, reps):
        code = main(
            [
                "verify-bounds",
                "--family", "exp:1,unif:0,2",
                "--n", "5",
                "--a", "1.0",
                "--reps", reps,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"mc_reps must be >= 2, got {reps}" in captured.err
        assert "VIOLATED" not in captured.out

    @pytest.mark.parametrize("model", ["gaussian:0,nan,1", "gaussian:0,1,inf", "poisson:inf,1"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--threshold", "100"],
        ["oracle", "--threshold", "5", "--reps", "200", "--horizon-cap", "10000"],
    ], ids=["evaluate", "oracle"])
    def test_non_finite_model_parameter_exit_2(self, tmp_path, data_file, capsys, command,
                                               model):
        # evaluate exited 0 with every llr NaN (or -inf) and every sequence
        # censored; oracle failed with "increase horizon_cap".
        out = tmp_path / "o.json"
        if command[0] == "evaluate":
            command = [*command, "--data", str(data_file)]
        assert main([*command, "--detector", "gsr", "--model", model, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"bad model spec {model!r}: model parameter" in captured.err
        assert "must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def _evaluate_gsr(self, tmp_path, data, *extra):
        return main(
            [
                "evaluate",
                "--data", str(data),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "4",
                "--out", str(tmp_path / "o.json"),
                *extra,
            ]
        )

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_jsonl_frame_exit_2(self, tmp_path, capsys, bad):
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 0.0, 0.0], "nu": null}\n'
            f'{{"id": "b", "values": [0.0, {bad}, 0.0], "nu": null}}\n'
        )
        assert self._evaluate_gsr(tmp_path, data) == 2
        assert "line 2: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_frame_exit_2(self, tmp_path, capsys, bad):
        data = tmp_path / "d.csv"
        data.write_text(f"a,,0.0,0.0,0.0\nb,,0.0,{bad},0.0\n")
        assert self._evaluate_gsr(tmp_path, data) == 2
        assert "line 2: non-finite value" in capsys.readouterr().err

    def test_worker_env_var_ignored(self, tmp_path, data_file, monkeypatch):
        out = tmp_path / "o.json"
        assert self._evaluate_gsr(tmp_path, data_file) == 0
        plain = out.read_bytes()
        monkeypatch.setenv("QCD_EVAL_WORKERS", "8")
        assert self._evaluate_gsr(tmp_path, data_file) == 0
        assert out.read_bytes() == plain

    def test_workers_flag_removed_exit_2(self, tmp_path, data_file, capsys):
        # --workers never had an effect: the sequences are scanned serially.
        assert self._evaluate_gsr(tmp_path, data_file, "--workers", "3") == 2
        assert "unrecognized arguments: --workers 3" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "curve", "survival"])
    def test_seed_flag_removed_exit_2(self, tmp_path, data_file, capsys, command):
        # --seed was only echoed into the manifest: these commands draw
        # nothing, and the outputs of any two seeds were the same.
        grid = ["--thresholds", "1:10:3-log"] if command == "curve" else ["--threshold", "4"]
        out = tmp_path / "o.out"
        assert main([command, "--data", str(data_file), "--detector", "gsr",
                     "--model", "gaussian:0,0.1,0.1", *grid, "--out", str(out),
                     "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "curve"])
    def test_model_free_detector_refuses_model_exit_2(self, tmp_path, data_file, capsys,
                                                      command):
        # The model was dropped without notice: the run exited 0 and its
        # manifest recorded detector_config.model as null.
        grid = ["--thresholds", "1:10:3-log"] if command == "curve" else ["--threshold", "4"]
        before = sorted(tmp_path.iterdir())
        assert main([command, "--data", str(data_file), "--detector", "ewma",
                     "--model", "gaussian:0,0.1,0.1", *grid,
                     "--out", str(tmp_path / "o.out")]) == 2
        assert "ewma does not take a likelihood model" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["evaluate", "--bogus"]) == 2

    def test_missing_data_exit_2(self, tmp_path):
        code = main(
            [
                "evaluate",
                "--data", str(tmp_path / "none.jsonl"),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "4",
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2

    def test_spec_seed_honored_when_flag_omitted(self, tmp_path, spec_file):
        from qcdeval.simulate import save_jsonl, simulate

        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 0
        spec = SimSpec.from_json(json.loads(spec_file.read_text()))
        ref = tmp_path / "ref.jsonl"
        save_jsonl(simulate(spec), ref, sidecar=False)
        assert out.read_bytes() == ref.read_bytes()

    def test_idempotent_given_seed(self, tmp_path, spec_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", "--spec", str(spec_file), "--out", str(a), "--seed", "3"])
        main(["simulate", "--spec", str(spec_file), "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestChangepointAndSpecValidation:
    def _evaluate_ewma(self, tmp_path, data):
        return main(
            [
                "evaluate",
                "--data", str(data),
                "--detector", "ewma",
                "--burn-in", "2",
                "--threshold", "3",
                "--out", str(tmp_path / "o.json"),
            ]
        )

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_jsonl_changepoint_exit_2(self, tmp_path, capsys, bad):
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
            f'{{"id": "b", "values": [0.0, 1.0, 0.0], "nu": {bad}}}\n'
        )
        assert self._evaluate_ewma(tmp_path, data) == 2
        assert "line 2: non-finite changepoint" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_changepoint_exit_2(self, tmp_path, capsys, bad):
        data = tmp_path / "d.csv"
        data.write_text(f"a,,0.0,1.0,0.0\nb,{bad},0.0,1.0,0.0\n")
        assert self._evaluate_ewma(tmp_path, data) == 2
        assert "line 2: non-finite changepoint" in capsys.readouterr().err

    def test_null_and_empty_changepoint_mean_no_change(self, tmp_path):
        jsonl, csv_path = tmp_path / "d.jsonl", tmp_path / "d.csv"
        jsonl.write_text('{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n')
        csv_path.write_text("a,,0.0,1.0,0.0\n")
        for data in (jsonl, csv_path):
            assert self._evaluate_ewma(tmp_path, data) == 0
            out = json.loads((tmp_path / "o.json").read_text())
            assert out["km-add"]["n_used"] == 0  # no with-change sequence

    def test_simulate_zero_sequences_exit_2(self, tmp_path, spec_file, capsys):
        spec = json.loads(spec_file.read_text())
        spec["n_sequences"] = 0
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 2
        assert "n_sequences" in capsys.readouterr().err


class TestDuplicateIdsAndManifest:
    ARGS = {"evaluate": ["--threshold", "4"], "curve": ["--thresholds", "1,10"]}

    def _run(self, tmp_path, command, data, out="o.out"):
        return main(
            [
                command,
                "--data", str(data),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                *self.ARGS[command],
                "--out", str(tmp_path / out),
            ]
        )

    @pytest.mark.parametrize("command", ["evaluate", "curve"])
    def test_duplicate_jsonl_id_exit_2(self, tmp_path, capsys, command):
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
            '{"id": "b", "values": [0.0, 1.0, 0.0], "nu": 1}\n'
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
        )
        assert self._run(tmp_path, command, data) == 2
        err = capsys.readouterr().err
        assert "malformed record at line 3: duplicate id 'a'" in err

    @pytest.mark.parametrize("command", ["evaluate", "curve"])
    def test_duplicate_csv_id_exit_2(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("a,,0.0,1.0,0.0\nb,1,0.0,1.0,0.0\na,,0.0,1.0,0.0\n")
        assert self._run(tmp_path, command, data) == 2
        err = capsys.readouterr().err
        assert "malformed record at line 3: duplicate id 'a'" in err

    @pytest.mark.parametrize("command", ["evaluate", "curve"])
    def test_detector_rejecting_sequence_exit_2(self, tmp_path, capsys, command):
        # Bivariate frames under gsr fail the run naming the sequence; they
        # must never be counted as censored runs.
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
            '{"id": "biv", "values": [[0.1, 0.2], [0.1, 0.2]], "nu": null}\n'
        )
        assert self._run(tmp_path, command, data) == 2
        err = capsys.readouterr().err
        assert "sequence 'biv': gsr supports univariate sequences only" in err

    @pytest.mark.parametrize("command", ["evaluate", "curve"])
    def test_cusum_rejects_bivariate_exit_2(self, tmp_path, capsys, command):
        # cusum used to score the row norm with a univariate model.
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
            '{"id": "biv", "values": [[0.1, 0.2], [0.1, 0.2]], "nu": null}\n'
        )
        code = main(
            [
                command,
                "--data", str(data),
                "--detector", "cusum",
                "--model", "gaussian:0,0.1,0.1",
                *self.ARGS[command],
                "--out", str(tmp_path / "o.out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sequence 'biv': cusum supports univariate sequences only" in err

    def test_evaluate_manifest_records_config_and_ingest(self, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
            '{"id": "b", "values": [0.0], "nu": null}\n'
            '{"id": "c", "values": [0.0, 1.0, 0.0], "nu": 5}\n'
        )
        assert self._run(tmp_path, "evaluate", data, out="o.json") == 0
        manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
        config = manifest["config"]
        assert config["detector_config"] == {
            "kind": "gsr",
            "threshold": 4.0,
            "model": {
                "kind": "gaussian",
                "mu0": 0.0,
                "mu1": 0.1,
                "var": 0.1,
                "lam0": 1.0,
                "lam1": 1.0,
            },
            "omega": 0.0,
            "ewma_lambda": 0.2,
            "window_size": 30,
            "burn_in": 30,
        }
        assert config["ingest"] == {
            "n_loaded": 1,
            "n_dropped_short": 1,
            "n_rejected": 1,
        }
        assert config["detector"] == "gsr" and config["threshold"] == 4.0
        assert manifest["command"] == "evaluate"


class TestBoundsExitCodes:
    def _verify(self, family, n, a, *extra):
        return main(["verify-bounds", "--family", family, "--n", n, "--a", a, *extra])

    def test_horizon_past_the_censoring_support(self, quad_nodes, capsys):
        code = self._verify("exp:1,unif:0,2", "5,20,100", "5")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all contained"
        assert max(quad_nodes) <= 128

    def test_exact_zero_bounds_contained(self, quad_nodes, capsys):
        code = self._verify("unif:0.5,3,unif:1,2", "5", "0.1", "--reps", "2000")
        assert code == 0
        assert "bounds [0, 0] mc_bias=0 " in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_exit_2(self, quad_nodes, capsys, n):
        assert self._verify("exp:1,unif:0,2", n, "1") == 2
        captured = capsys.readouterr()
        assert "n must be >= 1" in captured.err and "VIOLATED" not in captured.out

    @pytest.mark.parametrize("n,item", [
        ("5,,20", ""), ("abc", "abc"), ("", ""), ("5,", ""), ("5,2.5", "2.5"), ("5,1e3", "1e3"),
    ])
    def test_malformed_n_item_exit_2(self, capsys, n, item):
        assert self._verify("exp:1,unif:0,2", n, "1") == 2
        captured = capsys.readouterr()
        assert f"bad --n item {item!r} in {n!r}" in captured.err
        assert "invalid literal" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "family", ["exp:nan,unif:0,2", "exp:inf,unif:0,2", "exp:1,unif:0,inf"]
    )
    def test_non_finite_family_parameter_exit_2(self, capsys, family):
        assert self._verify(family, "5", "1") == 2
        assert f"bad family pair {family!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_horizon_exit_2(self, quad_nodes, capsys, a):
        assert self._verify("exp:1,unif:0,2", "5", a) == 2
        assert "a must be finite" in capsys.readouterr().err

    def test_unconverged_quadrature_exit_2(self, tmp_path, monkeypatch, capsys):
        from qcdeval import oracle

        calls = []

        def never_converges(event, censor, n, a, q):
            if q > 4096:
                raise AssertionError(f"built a {q}-node rule past the cap")
            calls.append(q)
            return -float(len(calls)), float(len(calls))

        monkeypatch.setattr(oracle, "_bound_integrals", never_converges)
        out = tmp_path / "b.csv"
        code = self._verify("exp:1,unif:0,2", "5", "1", "--out", str(out))
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "b.csv.manifest.json").exists()


class TestNanThresholds:
    DETECTORS = {
        "gsr": ["--model", "gaussian:0,0.1,0.1"],
        "cusum": ["--model", "gaussian:0,0.1,0.1"],
        "ewma": [],
        "window-l1": ["--window-size", "5", "--burn-in", "5"],
        "window-normal": ["--window-size", "5", "--burn-in", "5"],
    }

    @pytest.mark.parametrize("detector", list(DETECTORS))
    def test_evaluate_nan_threshold_exit_2(self, tmp_path, data_file, capsys, detector):
        code = main(
            [
                "evaluate",
                "--data", str(data_file),
                "--detector", detector,
                *self.DETECTORS[detector],
                "--threshold", "nan",
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2
        assert "threshold must not be NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_curve_nan_grid_point_exit_2(self, tmp_path, data_file, capsys):
        out = tmp_path / "c.csv"
        code = main(
            [
                "curve",
                "--data", str(data_file),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--thresholds", "1,nan,30",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "threshold grid must not contain NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_survival_nan_threshold_exit_2(self, tmp_path, data_file):
        code = main(
            [
                "survival",
                "--data", str(data_file),
                "--detector", "cusum",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "nan",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2

    def test_oracle_nan_threshold_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle",
                "--model", "gaussian:0,0.1,0.1",
                "--detector", "gsr",
                "--threshold", "nan",
                "--reps", "100",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "threshold must not be NaN" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.json.manifest.json").exists()

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_non_finite_omega_exit_2(self, tmp_path, data_file, capsys, omega):
        code = main(
            [
                "evaluate",
                "--data", str(data_file),
                "--detector", "gsr",
                "--model", "gaussian:0,0.1,0.1",
                "--threshold", "20",
                "--omega", omega,
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert code == 2
        assert "omega must be finite" in capsys.readouterr().err


class TestSpecAndOracleManifest:
    @pytest.mark.parametrize(
        "spec,missing",
        [({}, "model"), ({"model": {"kind": "gaussian"}}, "n_sequences"),
         ({"model": {}, "n_sequences": 3, "length_law": ["fixed", 5]}, "kind")],
    )
    def test_simulate_spec_missing_key_exit_2(self, tmp_path, capsys, spec, missing):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d.jsonl"
        assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 2
        assert f"simulation spec is missing key '{missing}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("law", [["fixed", 2.5], ["uniform", 1.5, 3.7], ["fixed", math.inf]])
    def test_simulate_non_whole_length_exit_2(self, tmp_path, capsys, spec_file, law):
        # Each ran before: 2.5 wrote 2-frame sequences, (1.5, 3.7) drew
        # lengths below lo, and inf failed with a traceback (exit 1).
        spec = json.loads(spec_file.read_text())
        spec["length_law"] = law  # inf is written as Infinity
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "d.jsonl"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 2
        assert "needs whole lengths" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, in_spec", [
        ("-1", 9), (str(2**64), 9), (None, -1), (None, 1.9), (None, 2**64), (None, True),
    ], ids=["flag-1", "flag-2**64", "spec-1", "spec-1.9", "spec-2**64", "spec-true"])
    def test_simulate_seed_outside_uint64_exit_2(self, tmp_path, capsys, flag, in_spec):
        # --seed -1 and a spec seed of -1 wrote seed 2**64 - 1's dataset, a
        # spec seed of 1.9 that of seed 1, and a spec seed of true that of
        # seed 1, with "seed": true in the manifest.
        spec = SimSpec(model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1),
                       n_sequences=3, length_law=("fixed", 5)).to_json()
        spec["seed"] = in_spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        seed = flag if flag is not None else in_spec
        args = ["simulate", "--spec", str(path), "--out", str(tmp_path / "d.jsonl")]
        assert main([*args, *(["--seed", flag] if flag else [])]) == 2
        captured = capsys.readouterr()
        assert f"seed must be an integer in [0, 2**64), got {seed}" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_oracle_failure_leaves_no_manifest(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle",
                "--model", "gaussian:0,0.1,0.1",
                "--detector", "gsr",
                "--threshold", "20",
                "--reps", "0",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [
        ["oracle", "--model", "gaussian:0,0.1,0.1", "--detector", "gsr", "--threshold", "5",
         "--reps", "200", "--horizon-cap", "10000"],
        ["verify-bounds", "--family", "exp:1,unif:0,2", "--n", "5", "--a", "1"],
    ], ids=["oracle", "verify-bounds"])
    def test_seed_outside_uint64_exit_2(self, tmp_path, capsys, command, seed):
        # Both exited 1 with an OverflowError traceback from np.uint64(seed).
        out = tmp_path / "o.out"
        assert main([*command, "--seed", seed, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"seed must be an integer in [0, 2**64), got {seed}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_oracle_model_free_detector_exit_2(self, tmp_path, capsys):
        # It said "oracle requires --model", though no model makes the
        # oracle run ewma.
        out = tmp_path / "o.json"
        assert main(["oracle", "--detector", "ewma", "--threshold", "5",
                     "--reps", "200", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "monte-carlo oracle supports gsr/cusum only, got ewma" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [2.7, True, "3", None])
    def test_simulate_sequence_count_not_an_integer_exit_2(self, tmp_path, capsys,
                                                            spec_file, n):
        # int() truncated each: 2.7 simulated 2 sequences, true 1 and "3" 3.
        spec = json.loads(spec_file.read_text())
        spec["n_sequences"] = n
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "d.jsonl"
        assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 2
        assert f"n_sequences must be an integer >= 1, got {n!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_oracle_writes_manifest_with_result(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle",
                "--model", "gaussian:0,0.1,0.1",
                "--detector", "gsr",
                "--threshold", "5",
                "--reps", "200",
                "--horizon-cap", "10000",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
        assert manifest["command"] == "oracle" and manifest["config"]["reps"] == 200
        assert json.loads(out.read_text())["n_reps"] == 200


class TestOnePipeline:
    """``evaluate`` and ``survival`` read the sweep's (lengths, nu, tau)
    columns. Their outputs must equal the object-level route (``run_all``
    outcomes matched by id, then ``compute_metric``, or ``arl_samples`` /
    ``add_samples`` and ``fit_km``), and a failing run writes nothing."""

    CONFIGS = {
        "gsr": (["--detector", "gsr", "--model", "gaussian:0,0.1,0.1"], "20"),
        "gsr-omega-zero": (
            ["--detector", "gsr", "--model", "gaussian:0,0.1,0.1", "--omega", "2.5"],
            "0",
        ),
        "cusum": (["--detector", "cusum", "--model", "gaussian:0,0.1,0.1"], "1"),
        "ewma": (["--detector", "ewma", "--burn-in", "5"], "2"),
        "window-l1": (["--detector", "window-l1", *TestNanThresholds.DETECTORS["window-l1"]], "1"),
        "window-normal": (
            ["--detector", "window-normal", *TestNanThresholds.DETECTORS["window-normal"]],
            "4",
        ),
    }

    @staticmethod
    def _reference(data_file, argv, min_length):
        from qcdeval.cli import _detector_config, build_parser
        from qcdeval.harness import ingest, run_all

        args = build_parser().parse_args(["survival", "--data", str(data_file),
                                          "--out", "unused", *argv])
        dataset = ingest(data_file, min_length=min_length)
        return dataset, run_all(dataset, _detector_config(args))

    @pytest.mark.parametrize("min_length", ["2", "1000"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_outputs_equal_object_route(self, tmp_path, data_file, name, min_length):
        from qcdeval.metrics import METRIC_NAMES, add_samples, arl_samples, compute_metric
        from qcdeval.survival import fit_km

        flags, threshold = self.CONFIGS[name]
        argv = [*flags, "--threshold", threshold, "--min-length", min_length]
        dataset, outcomes = self._reference(data_file, argv, int(min_length))
        assert len(dataset) == (80 if min_length == "2" else 0)

        out = tmp_path / "m.json"
        assert main(["evaluate", "--data", str(data_file), *argv, "--out", str(out)]) == 0
        want = {m: compute_metric(m, dataset.metas, outcomes).to_json() for m in METRIC_NAMES}
        assert out.read_text() == json.dumps(want, indent=2) + "\n"

        for kind, builder in (("arl", arl_samples), ("add", add_samples)):
            out = tmp_path / f"{kind}.csv"
            code = main(["survival", "--data", str(data_file), *argv, "--kind", kind,
                         "--out", str(out)])
            samples = builder(dataset.metas, outcomes)
            if not samples:
                assert code == 2 and not out.exists()
                continue
            assert code == 0
            ref = tmp_path / f"{kind}.ref.csv"
            fit_km(samples).to_csv(ref)
            assert out.read_bytes() == ref.read_bytes()

    BIVARIATE = (
        '{"id": "a", "values": [0.0, 1.0, 0.0], "nu": null}\n'
        '{"id": "biv", "values": [[0.1, 0.2], [0.1, 0.2]], "nu": null}\n'
    )
    GSR = ["--detector", "gsr", "--model", "gaussian:0,0.1,0.1"]
    GRID = {
        "evaluate": ["--threshold", "4"],
        "curve": ["--thresholds", "4,40"],
        "survival": ["--threshold", "4"],
    }

    @pytest.mark.parametrize("command", list(GRID))
    def test_failing_run_writes_nothing(self, tmp_path, capsys, command):
        data = tmp_path / "d.jsonl"
        data.write_text(self.BIVARIATE)
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--data", str(data), *self.GSR, *self.GRID[command],
                "--out", str(out / "o.out")]
        if command == "curve":
            argv += ["--svg", str(out / "o.svg")]
        assert main(argv) == 2
        assert "sequence 'biv'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_curve_nan_grid_writes_nothing(self, tmp_path, data_file, capsys):
        out = tmp_path / "out" / "c.csv"
        out.parent.mkdir()
        argv = ["curve", "--data", str(data_file), *self.GSR,
                "--thresholds", "1,nan,30", "--out", str(out)]
        assert main(argv) == 2
        assert "threshold grid must not contain NaN" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_survival_without_samples_writes_nothing(self, tmp_path, data_file):
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        argv = ["survival", "--data", str(data_file), *self.GSR, "--threshold", "4",
                "--min-length", "1000", "--out", str(out)]
        assert main(argv) == 2
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("command", list(GRID))
    def test_manifest_written_with_results(self, tmp_path, data_file, command):
        out = tmp_path / "o.out"
        argv = [command, "--data", str(data_file), *self.GSR, *self.GRID[command],
                "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o.out.manifest.json").read_text())
        assert manifest["command"] == command and out.exists()


SRC = Path(qcdeval.__file__).resolve().parents[1]
C_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}


def _python(*args, env=None):
    """Run ``python *args`` on this source tree, with ``env`` set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path, **(env or {})})


class TestTextEncoding:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_data_read_as_utf8_in_the_c_locale(self, tmp_path, fmt):
        data = tmp_path / f"d.{fmt}"
        text = ('{"id": "séq", "values": [0.5, 1.5, 2.5], "nu": 1}\n' if fmt == "jsonl"
                else "séq,1,0.5,1.5,2.5\n")
        data.write_bytes(text.encode("utf-8"))
        code = ("import json, logging, sys; from qcdeval.harness import ingest; "
                "logging.basicConfig(level=logging.INFO); "
                f"print(json.dumps(ingest(sys.argv[1], fmt={fmt!r}).ids))")
        for kind in ("miss", "hit"):
            run = _python("-c", code, str(data), env=C_LOCALE)
            assert run.returncode == 0, run.stderr
            assert f"ingest cache {kind}" in run.stderr
            assert json.loads(run.stdout) == ["séq"]

    def test_every_subcommand_names_its_encoding(self, tmp_path, spec_file):
        def out(name):
            return ["--out", str(tmp_path / name)]

        data = str(tmp_path / "d.jsonl")
        gsr = ["--detector", "gsr", "--model", "gaussian:0,0.1,0.1"]
        argvs = [
            ["simulate", "--spec", str(spec_file), *out("d.jsonl")],
            ["evaluate", "--data", data, *gsr, "--threshold", "20", *out("e.json")],
            ["curve", "--data", data, *gsr, "--thresholds", "1,10,100", *out("c.csv"),
             "--svg", str(tmp_path / "c.svg")],
            ["survival", "--data", data, *gsr, "--threshold", "20", *out("s.csv")],
            ["oracle", *gsr, "--threshold", "5", "--reps", "200", "--horizon-cap", "10000",
             *out("o.json")],
            ["verify-bounds", "--family", "exp:1,unif:0,2", "--n", "5", "--a", "1",
             "--reps", "2000", *out("v.csv")],
        ]
        code = ("import json, sys; from qcdeval.cli import main; "
                "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
        run = _python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                      "-c", code, json.dumps(argvs))
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(argvs)
        assert "EncodingWarning" not in run.stderr


def test_ewma_curve_leaves_scipy_unimported(tmp_path, data_file):
    # scipy is a test dependency only; the program runs on numpy alone.
    argv = ["curve", "--data", str(data_file), "--detector", "ewma",
            "--thresholds", "0.5:5:8-log", "--out", str(tmp_path / "c.csv"),
            "--svg", str(tmp_path / "c.svg")]
    code = ("import json, sys; from qcdeval.cli import main; "
            "assert main(json.loads(sys.argv[1])) == 0; "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    run = _python("-c", code, json.dumps(argv))
    assert run.returncode == 0, run.stderr


class TestLogLevel:
    """``-v``/``--log-level`` sends qcdeval's log records to stderr; without
    it a run writes nothing there and its stdout and manifest keep their
    bytes."""

    def _data(self, tmp_path):
        data = tmp_path / "d.jsonl"
        rows = [{"id": "short", "values": [0.5], "nu": None}]
        rows += [{"id": f"s{i}", "values": [0.1 * i, 0.5, 1.5, 9.0], "nu": 1} for i in range(6)]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return data

    def _curve(self, tmp_path, capsys, data, name, *flags):
        out = tmp_path / f"{name}.csv"
        argv = ["curve", "--data", str(data), "--detector", "gsr",
                "--model", "gaussian:0,1,1", "--thresholds", "1,10,100", "--out", str(out),
                *flags]
        assert main(argv) == 0
        captured = capsys.readouterr()
        manifest = Path(f"{out}.manifest.json").read_bytes()
        return captured.out.replace(name, "<out>"), captured.err, manifest

    def test_verbose_shows_cache_and_drops(self, tmp_path, capsys):
        data = self._data(tmp_path)
        quiet = self._curve(tmp_path, capsys, data, "quiet")
        assert quiet[1] == ""
        cache = tmp_path / ".d.jsonl.qcdeval-cache.npz"
        cache.unlink()
        out, err, manifest = self._curve(tmp_path, capsys, data, "miss", "-v")
        assert err.splitlines() == [
            f"INFO qcdeval.harness: ingest cache miss: {cache}",
            "INFO qcdeval.harness: 1 sequence(s) dropped below min_length=2",
        ]
        assert (out, manifest) == (quiet[0], quiet[2])
        out, err, manifest = self._curve(tmp_path, capsys, data, "hit", "--log-level", "debug")
        assert f"INFO qcdeval.harness: ingest cache hit: {cache}" in err.splitlines()
        assert (out, manifest) == (quiet[0], quiet[2])
        assert self._curve(tmp_path, capsys, data, "warn", "--log-level", "warning")[1] == ""
        assert logging.getLogger("qcdeval").handlers == []
        assert logging.getLogger("qcdeval").level == logging.NOTSET

    def test_unknown_level_exit_2(self, tmp_path, capsys):
        argv = ["curve", "--data", str(self._data(tmp_path)), "--detector", "ewma",
                "--thresholds", "1", "--out", str(tmp_path / "c.csv"), "--log-level", "loud"]
        assert main(argv) == 2
        assert "invalid choice: 'loud'" in capsys.readouterr().err
