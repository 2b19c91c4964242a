import json

import pytest

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
        import qcdeval.cli

        seen = []
        run_all = qcdeval.cli.run_all
        monkeypatch.setattr(
            qcdeval.cli,
            "run_all",
            lambda ds, cfg, workers: seen.append(workers) or run_all(ds, cfg, workers),
        )
        monkeypatch.setenv("QCD_EVAL_WORKERS", "8")
        assert self._evaluate_gsr(tmp_path, data_file) == 0
        assert self._evaluate_gsr(tmp_path, data_file, "--workers", "3") == 0
        assert seen == [1, 3]

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
