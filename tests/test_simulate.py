import hashlib
import json
import math

import numpy as np
import pytest

from qcdeval.detectors import LikelihoodModel
from qcdeval.harness import ingest
from qcdeval.metrics import INF
from qcdeval.simulate import (
    _TRUNCATE_STREAM,
    LabeledDataset,
    _seq_rng,
    SimSpec,
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

    @pytest.mark.parametrize("law", [("fixed", 2.5), ("uniform", 1.5, 3.7), ("uniform", 1.5, 4),
                                     ("fixed", math.inf), ("uniform", 2, math.nan)])
    def test_lengths_must_be_whole(self, law):
        with pytest.raises(ValueError, match="needs whole lengths"):
            spec(length_law=law)
        with pytest.raises(ValueError, match="needs whole lengths"):
            truncate(simulate(spec(n_sequences=2)), law)

    def test_whole_float_lengths_draw_as_integers(self):
        a = simulate(spec(length_law=("uniform", 5.0, 60.0)))
        assert a.content_hash() == simulate(spec(length_law=("uniform", 5, 60))).content_hash()

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
        sim = simulate(spec(with_change_fraction=1.0, changepoint_law=("uniform",)))
        ds = LabeledDataset.from_sequences(sim.ids, sim.values, sim.nu)
        out = truncate(ds, ("fixed", 5), seed=0)
        for m in out.metas:
            assert m.length_T == 5
            assert m.changepoint_nu == INF or m.changepoint_nu < 5


class TestPersistence:
    def test_round_trip_hash(self, tmp_path):
        ds = simulate(spec(changepoint_law=("geometric", 0.1)))
        path = tmp_path / "data.jsonl"
        save_jsonl(ds, path)
        back = ingest(path, min_length=1)
        assert back.content_hash() == ds.content_hash()
        meta = json.loads((tmp_path / "data.jsonl.meta.json").read_text())
        assert SimSpec.from_json(meta) == ds.provenance

    def test_hash_sees_ids_nu_values_and_shape(self):
        def dataset(ids=("a", "b"), nus=(3.0, INF), last=1.5, shape=(4,)):
            values = [np.arange(4.0).reshape(shape), np.array([0.0, 1.0, 2.0, last])]
            return LabeledDataset.from_sequences(ids, values, nus)

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


def _loop_hash(ids, values, nus):
    """The content hash as a loop over sequences: a JSON header, then a copy
    of the frames' bytes."""
    h = hashlib.sha256()
    for seq_id, vals, nu in zip(ids, values, nus):
        arr = np.asarray(vals, dtype="<f8")
        h.update(json.dumps([seq_id, float(nu), list(arr.shape)]).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _pieces(case):
    rng = np.random.default_rng(11)
    ids, nus = ["a", "b", "c"], [2.0, INF, 0.0]
    if case == "empty":
        return [], [], []
    if case == "non-ascii ids":
        ids = ["séquence-π", "日本", "tail\x00"]
    shapes = {"(T, 1)": [(5, 1), (1, 1), (9, 1)], "(T, 3)": [(5, 3), (1, 3), (9, 3)],
              "mixed": [(5,), (1, 3), (9, 1)]}.get(case, [(5,), (1,), (9,)])
    values = [rng.normal(size=shape) for shape in shapes]
    if case == "-0.0":
        values[0][[0, 3]] = -0.0
    return ids, values, nus


class TestFlatLayout:
    CASES = ("1-D", "(T, 1)", "(T, 3)", "mixed", "-0.0", "non-ascii ids", "empty")

    @pytest.mark.parametrize("case", CASES)
    def test_columns_and_hash_match_the_sequences(self, case):
        ids, values, nus = _pieces(case)
        ds = LabeledDataset.from_sequences(ids, values, nus)
        assert ds.content_hash() == _loop_hash(ids, values, nus)
        assert len(ds) == len(ds.ids) == len(ds.nu) == len(ds.widths) == ds.offsets.size - 1
        assert ds.lengths.tolist() == [v.shape[0] for v in values]
        assert [m.changepoint_nu for m in ds.metas] == nus
        for got, want in zip(ds.values, values, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, ds.frames)

    def test_hash_sees_the_sign_of_zero(self):
        ids, values, nus = _pieces("-0.0")
        plus = [np.abs(v) if i == 0 else v for i, v in enumerate(values)]
        assert (LabeledDataset.from_sequences(ids, values, nus).content_hash()
                != LabeledDataset.from_sequences(ids, plus, nus).content_hash())

    def test_seeded_hashes_do_not_change(self):
        # Recorded with one array per sequence; the flat columns must give
        # the same bytes.
        gauss = simulate(spec(length_law=("uniform", 5, 60), changepoint_law=("geometric", 0.05)))
        counts = simulate(spec(model=POISSON, seed=7))
        cut = truncate(gauss, ("uniform", 3, 40), seed=9)
        assert gauss.content_hash() == (
            "45097ad017f45bf899af8b2597745c1fb7573e9ad9890d3f620e2652c89e2216")
        assert counts.content_hash() == (
            "62339639bcafa940a04ab7df8aec967b007aae954603140ab6867e4842a1570f")
        assert cut.content_hash() == (
            "4c205c16cb6e73eec539bc2a9cf6432215ccb2b52a2a557cc455f867c774da07")
        assert cut.clamped_truncations == 13
