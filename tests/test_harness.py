import json

import numpy as np
import pytest

from qcdeval.detectors import DetectorConfig, LikelihoodModel
from qcdeval.harness import (
    emit_curve,
    ingest,
    observation_bounds,
    run_all,
    sweep,
    write_manifest,
)
from qcdeval.metrics import INF, METRIC_NAMES
from qcdeval.simulate import SimSpec, save_jsonl, simulate

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)


def write_jsonl(tmp_path, records, name="d.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.fixture(scope="module")
def dataset():
    spec = SimSpec(
        model=GAUSS,
        n_sequences=300,
        length_law=("uniform", 30, 120),
        changepoint_law=("uniform",),
        with_change_fraction=0.6,
        seed=77,
    )
    return simulate(spec)


class TestIngest:
    def test_min_length_drop(self, tmp_path):
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "values": [1.0, 2.0], "nu": None},
                {"id": "b", "values": [1.0], "nu": None},
                {"id": "c", "values": [0.0, 1.0, 2.0], "nu": 1},
                {"id": "d", "values": [3.0, 4.0], "nu": None},
            ],
        )
        ds = ingest(path, min_length=2)
        assert len(ds) == 3
        assert ds.ingest_report.n_dropped_short == 1

    def test_nu_beyond_length_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path, [{"id": "a", "values": [1.0, 2.0, 3.0, 4.0, 5.0], "nu": 7}]
        )
        ds = ingest(path)
        assert len(ds) == 0
        assert ds.ingest_report.n_rejected == 1
        assert "a" in ds.ingest_report.diagnostics[0]

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","values":[1,2],"nu":null}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest(path)

    def test_missing_field_line_number(self, tmp_path):
        path = write_jsonl(tmp_path, [{"id": "a", "values": [1, 2]}])
        with pytest.raises(ValueError, match="line 1"):
            ingest(path)

    @pytest.mark.parametrize("values", [[[], []], [[]], []])
    def test_zero_feature_frames_line_number(self, tmp_path, values):
        # Frames without features would never alarm a window or cusum scan
        # and be counted as censored runs.
        path = write_jsonl(
            tmp_path,
            [
                {"id": "a", "values": [1.0, 2.0], "nu": None},
                {"id": "b", "values": values, "nu": None},
            ],
        )
        with pytest.raises(ValueError, match="line 2: bad values shape"):
            ingest(path)

    def test_round_trip_identity(self, tmp_path, dataset):
        path = tmp_path / "rt.jsonl"
        save_jsonl(dataset, path)
        back = ingest(path, min_length=1)
        assert back.content_hash() == dataset.content_hash()

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,,1.0,2.0,3.0\nb,1,0.5,0.6\n")
        ds = ingest(path, fmt="csv")
        assert len(ds) == 2
        assert ds.metas[0].changepoint_nu == INF
        assert ds.metas[1].changepoint_nu == 1.0

    def test_unknown_format(self, tmp_path):
        path = write_jsonl(tmp_path, [])
        with pytest.raises(ValueError, match="format"):
            ingest(path, fmt="parquet")


class TestSweep:
    def cfg(self):
        return DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS)

    def test_hand_dataset_point(self, tmp_path):
        # Craft outcomes through a threshold where the pipeline reproduces
        # the hand value: verified at the metric level in test_metrics; here
        # assert plumbing (single point, all metrics present).
        ds = simulate(
            SimSpec(
                model=GAUSS,
                n_sequences=20,
                length_law=("fixed", 50),
                changepoint_law=("uniform",),
                with_change_fraction=0.5,
                seed=5,
            )
        )
        res = sweep(ds, self.cfg(), [30.0], METRIC_NAMES, workers=1)
        assert len(res.points) == 1
        assert set(res.points[0].estimates) == set(METRIC_NAMES)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="empty threshold"):
            sweep(dataset, self.cfg(), [], METRIC_NAMES)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(dataset, self.cfg(), [2.0, 2.0], METRIC_NAMES)
        with pytest.raises(ValueError, match="no metrics"):
            sweep(dataset, self.cfg(), [1.0], [])

    def test_km_n_used_constant_lb_varies(self, dataset):
        res = sweep(
            dataset, self.cfg(), [2.0, 20.0, 200.0], METRIC_NAMES, workers=1
        )
        km_ns = {p.estimates["km-arl"].n_used for p in res.points}
        assert km_ns == {len(dataset)}
        lb_ns = [p.estimates["lb-arl"].n_used for p in res.points]
        assert len(set(lb_ns)) > 1

    def test_worker_determinism(self, dataset, tmp_path):
        res1 = sweep(dataset, self.cfg(), [5.0, 50.0], METRIC_NAMES, workers=1)
        res8 = sweep(dataset, self.cfg(), [5.0, 50.0], METRIC_NAMES, workers=8)
        p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        emit_curve(res1, p1)
        emit_curve(res8, p8)
        assert p1.read_bytes() == p8.read_bytes()

    def test_detector_failure_names_sequence(self):
        # A sequence the likelihood model rejects fails the sweep with its
        # id; it must never be counted as a censored run.
        model = LikelihoodModel(kind="poisson", lam0=1.0, lam1=4.0)
        counts = simulate(
            SimSpec(
                model=model,
                n_sequences=6,
                length_law=("fixed", 40),
                changepoint_law=("uniform",),
                with_change_fraction=0.5,
                seed=3,
            )
        )
        cfg = DetectorConfig(kind="cusum", threshold=1e12, model=model)
        assert len(sweep(counts, cfg, [1e12], ("km-arl",)).points) == 1
        counts.values[3] = counts.values[3] + 0.5  # non-integer counts
        with pytest.raises(ValueError) as err:
            sweep(counts, cfg, [1e12], ("km-arl",), workers=1)
        assert str(err.value) == (
            "sequence 'seq000003': poisson model requires non-negative integer frames"
        )

    def test_other_detector_errors_propagate(self, dataset, monkeypatch):
        import qcdeval.harness

        def boom(values, config, levels):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(qcdeval.harness, "scan", boom)
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            sweep(dataset, self.cfg(), [5.0], ("km-arl",))


class TestEmitCurve:
    def build(self, dataset, thresholds):
        cfg = DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS)
        return sweep(dataset, cfg, thresholds, METRIC_NAMES, workers=2)

    def test_csv_shape(self, dataset, tmp_path):
        res = self.build(dataset, [10.0])
        out = tmp_path / "c.csv"
        emit_curve(res, out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "threshold,metric,value,sem,n_used,extrapolation_flag"
        assert len(rows) == 1 + len(METRIC_NAMES)

    def test_undefined_value_empty_field(self, dataset, tmp_path):
        # An impossible threshold leaves LB metrics undefined.
        res = self.build(dataset, [1e300])
        out = tmp_path / "c.csv"
        emit_curve(res, out)
        lb_rows = [
            r for r in out.read_text().splitlines() if r.split(",")[1] == "lb-arl"
        ]
        assert lb_rows and lb_rows[0].split(",")[2] == ""

    def test_svg_marker_counts(self, dataset, tmp_path):
        grid = list(np.geomspace(2.0, 60.0, 20))
        res = self.build(dataset, grid)
        out = tmp_path / "c.svg"
        emit_curve(res, out, fmt="svg")
        svg = out.read_text()
        assert svg.count('class="marker-km"') == 20
        assert svg.count('class="marker-lb"') <= 20
        assert 'class="extrapolation-region"' in svg

    def test_svg_omits_undefined_markers(self, dataset, tmp_path):
        res = self.build(dataset, [1e300])
        out = tmp_path / "c.svg"
        emit_curve(res, out, fmt="svg")
        svg = out.read_text()
        assert svg.count('class="marker-lb"') == 0

    def test_unknown_format(self, dataset, tmp_path):
        res = self.build(dataset, [10.0])
        with pytest.raises(ValueError):
            emit_curve(res, tmp_path / "c.x", fmt="png")


class TestMisc:
    def test_observation_bounds(self, dataset):
        t_max, dt_max = observation_bounds(dataset)
        assert t_max == max(
            min(m.changepoint_nu, m.length_T) for m in dataset.metas
        )
        assert dt_max > 0

    def test_run_all_order_stable(self, dataset):
        cfg = DetectorConfig(kind="cusum", threshold=5.0, model=GAUSS)
        a = run_all(dataset, cfg, workers=1)
        b = run_all(dataset, cfg, workers=6)
        assert a == b

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(
            path, command="curve", config={"x": 1}, seed=7, dataset_hash="abc"
        )
        obj = json.loads(path.read_text())
        assert obj["tool"] == "qcdeval"
        assert obj["seed"] == 7
        assert obj["dataset_hash"] == "abc"
