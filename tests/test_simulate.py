import json
import math

import numpy as np
import pytest

from qcdeval.detectors import LikelihoodModel
from qcdeval.metrics import INF, SequenceMeta
from qcdeval.simulate import (
    _TRUNCATE_STREAM,
    LabeledDataset,
    _seq_rng,
    SimSpec,
    load_jsonl,
    save_jsonl,
    simulate,
    truncate,
)

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)
POISSON = LikelihoodModel(kind="poisson", lam0=1.0, lam1=4.0)


def spec(**kw):
    base = dict(
        model=GAUSS,
        n_sequences=50,
        length_law=("fixed", 40),
        changepoint_law=("uniform",),
        with_change_fraction=0.5,
        seed=123,
    )
    base.update(kw)
    return SimSpec(**base)


class TestSimSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(n_sequences=0)
        with pytest.raises(ValueError):
            spec(length_law=("fixed", 0))
        with pytest.raises(ValueError):
            spec(length_law=("uniform", 5, 3))
        with pytest.raises(ValueError):
            spec(changepoint_law=("geometric", 0.0))
        with pytest.raises(ValueError):
            spec(with_change_fraction=1.5)
        with pytest.raises(ValueError):
            spec(changepoint_law=("none",), with_change_fraction=0.5)

    def test_json_round_trip(self):
        s = spec(changepoint_law=("geometric", 0.01))
        assert SimSpec.from_json(s.to_json()) == s
        s2 = spec(model=POISSON)
        assert SimSpec.from_json(s2.to_json()).model.kind == "poisson"


class TestSequenceStreams:
    @pytest.mark.parametrize("stream", [0, _TRUNCATE_STREAM])
    def test_matches_jumped_philox(self, stream):
        # Each sequence's stream is the key's Philox stream jumped i times.
        for seed in (0, 123, -1):
            key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(stream)
            for i in (0, 1, 5, 12345, 10**6):
                got = _seq_rng(seed, i, stream)
                want = np.random.Generator(np.random.Philox(key=key).jumped(i))
                g, w = got.bit_generator.state, want.bit_generator.state
                for part in ("counter", "key"):
                    assert np.array_equal(g["state"][part], w["state"][part])
                assert g["buffer_pos"] == w["buffer_pos"]
                assert got.random() == want.random()
                assert got.integers(0, 1 << 40) == want.integers(0, 1 << 40)
                assert got.standard_normal() == want.standard_normal()


class TestSimulate:
    def test_shapes_and_labels(self):
        ds = simulate(spec())
        assert len(ds) == 50
        for m, v in zip(ds.metas, ds.values):
            assert v.shape == (m.length_T,)
            nu = m.changepoint_nu
            assert nu == INF or 0 <= nu < m.length_T

    def test_geometric_p1_all_immediate(self):
        ds = simulate(
            spec(changepoint_law=("geometric", 1.0), with_change_fraction=1.0)
        )
        assert all(m.changepoint_nu == 0.0 for m in ds.metas)

    def test_fraction_zero_no_changes(self):
        ds = simulate(spec(with_change_fraction=0.0))
        assert all(m.changepoint_nu == INF for m in ds.metas)

    def test_bit_identical_reproducibility(self):
        a = simulate(spec())
        b = simulate(spec())
        assert a.content_hash() == b.content_hash()
        c = simulate(spec(seed=124))
        assert c.content_hash() != a.content_hash()

    def test_change_fraction_statistics(self):
        ds = simulate(spec(n_sequences=10_000, with_change_fraction=0.3))
        frac = sum(m.changepoint_nu != INF for m in ds.metas) / len(ds)
        sd = math.sqrt(0.3 * 0.7 / 10_000)
        assert abs(frac - 0.3) <= 3 * sd

    def test_pre_change_moments(self):
        ds = simulate(
            spec(
                n_sequences=1000,
                length_law=("fixed", 1000),
                with_change_fraction=0.0,
            )
        )
        frames = np.concatenate(ds.values)
        n = frames.size
        assert abs(frames.mean() - 0.0) <= 5 * math.sqrt(0.1 / n)
        assert abs(frames.var() - 0.1) <= 5 * 0.1 * math.sqrt(2.0 / n)

    def test_geometric_mean(self):
        p = 0.05
        ds = simulate(
            spec(
                n_sequences=10_000,
                length_law=("fixed", 2000),
                changepoint_law=("geometric", p),
                with_change_fraction=1.0,
            )
        )
        nus = [m.changepoint_nu for m in ds.metas if m.changepoint_nu != INF]
        mean = sum(nus) / len(nus)
        expected = (1 - p) / p
        se = math.sqrt((1 - p) / p**2 / len(nus))
        assert abs(mean - expected) <= 5 * se

    def test_post_change_frames_shift(self):
        ds = simulate(
            spec(
                model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=50.0, var=1.0),
                n_sequences=20,
                changepoint_law=("uniform",),
                with_change_fraction=1.0,
            )
        )
        for m, v in zip(ds.metas, ds.values):
            nu = int(m.changepoint_nu)
            assert np.all(v[nu:] > 25.0)
            if nu > 0:
                assert np.all(v[:nu] < 25.0)

    def test_poisson_integer_frames(self):
        ds = simulate(spec(model=POISSON, with_change_fraction=0.0))
        frames = np.concatenate(ds.values)
        assert np.all(frames == np.floor(frames)) and np.all(frames >= 0)


class TestTruncate:
    def test_identity_when_fixed_at_original(self):
        ds = simulate(spec(length_law=("fixed", 40)))
        out = truncate(ds, ("fixed", 40))
        assert out.content_hash() == ds.content_hash()
        assert out.clamped_truncations == 0

    def test_range_and_clamping(self):
        ds = simulate(spec(n_sequences=200, length_law=("fixed", 50)))
        out = truncate(ds, ("uniform", 30, 80), seed=1)
        assert all(30 <= m.length_T <= 50 for m in out.metas)
        assert out.clamped_truncations > 0

    def test_changepoint_reset(self):
        ds = LabeledDataset(
            metas=simulate(
                spec(with_change_fraction=1.0, changepoint_law=("uniform",))
            ).metas,
            values=simulate(
                spec(with_change_fraction=1.0, changepoint_law=("uniform",))
            ).values,
        )
        out = truncate(ds, ("fixed", 5), seed=0)
        for m in out.metas:
            assert m.length_T == 5
            assert m.changepoint_nu == INF or m.changepoint_nu < 5


class TestPersistence:
    def test_round_trip_hash(self, tmp_path):
        ds = simulate(spec(changepoint_law=("geometric", 0.1)))
        path = tmp_path / "data.jsonl"
        save_jsonl(ds, path)
        back = load_jsonl(path)
        assert back.content_hash() == ds.content_hash()
        meta = json.loads((tmp_path / "data.jsonl.meta.json").read_text())
        assert SimSpec.from_json(meta) == ds.provenance

    def test_hash_sees_ids_nu_values_and_shape(self):
        def dataset(ids=("a", "b"), nus=(3.0, INF), last=1.5, shape=(4,)):
            metas = [SequenceMeta(id=i, length_T=4, changepoint_nu=nu)
                     for i, nu in zip(ids, nus)]
            values = [np.arange(4.0).reshape(shape), np.array([0.0, 1.0, 2.0, last])]
            return LabeledDataset(metas=metas, values=values)

        base = dataset().content_hash()
        assert dataset().content_hash() == base
        variants = [
            dataset(ids=("a", "c")),
            dataset(nus=(2.0, INF)),
            dataset(nus=(3.0, 1.0)),
            dataset(last=1.25),
            dataset(shape=(4, 1)),
        ]
        hashes = {d.content_hash() for d in variants}
        assert len(hashes) == len(variants) and base not in hashes

    def test_nu_null_encoding(self, tmp_path):
        ds = simulate(spec(with_change_fraction=0.0, n_sequences=2))
        path = tmp_path / "d.jsonl"
        save_jsonl(ds, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["nu"] is None
