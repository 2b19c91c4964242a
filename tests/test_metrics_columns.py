"""The columnar metric core against the object-level loops it replaced.

``metrics.estimate`` computes the five metrics as masked array expressions
over (lengths, nu, tau) columns. The reference below is the earlier
implementation: outcomes matched to metas by id, one Python loop per sample
set or selection, then ``fit_km``/``rmst`` or a mean over a list. Every
``MetricEstimate`` field must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcdeval.harness
import qcdeval.metrics
from qcdeval.detectors import DetectorConfig, LikelihoodModel
from qcdeval.harness import run_all, sweep
from qcdeval.metrics import (
    INF,
    METRIC_NAMES,
    DetectionOutcome,
    MetricEstimate,
    SequenceMeta,
    _columns,
    add_columns,
    add_samples,
    arl_samples,
    compute_metric,
    estimate,
    estimate_columns,
    km_add,
    km_arl,
)
from qcdeval.simulate import SimSpec, simulate
from qcdeval.survival import SurvivalSample, fit_km, fit_km_arrays, rmst


def ref_pair(metas, outcomes):
    meta_by_id = {}
    for m in metas:
        if m.id in meta_by_id:
            raise ValueError(f"duplicate sequence id: {m.id}")
        meta_by_id[m.id] = m
    seen = set()
    pairs = []
    for o in outcomes:
        if o.id in seen:
            raise ValueError(f"duplicate outcome id: {o.id}")
        seen.add(o.id)
        m = meta_by_id.get(o.id)
        if m is None:
            raise ValueError(f"outcome id not in dataset: {o.id}")
        if o.tau != INF and not (0 <= o.tau < m.length_T):
            raise ValueError(
                f"alarm at {o.tau} outside sequence {o.id} of length {m.length_T}"
            )
        pairs.append((m, o))
    if len(pairs) != len(meta_by_id):
        missing = set(meta_by_id) - seen
        raise ValueError(f"missing outcomes for ids: {sorted(missing)[:5]}")
    return pairs


def ref_arl_samples(metas, outcomes):
    samples = []
    for m, o in ref_pair(metas, outcomes):
        censor = min(m.changepoint_nu, m.length_T)
        if o.tau < censor:
            samples.append(SurvivalSample(time=float(o.tau), event=True))
        else:
            samples.append(SurvivalSample(time=float(censor), event=False))
    return samples


def ref_add_samples(metas, outcomes):
    samples = []
    for m, o in ref_pair(metas, outcomes):
        nu = m.changepoint_nu
        if nu == INF:
            continue
        if o.tau != INF and o.tau < nu:
            continue
        if o.tau != INF:
            samples.append(SurvivalSample(time=float(o.tau - nu), event=True))
        else:
            samples.append(SurvivalSample(time=float(m.length_T - nu), event=False))
    return samples


def _undefined(name):
    return MetricEstimate(name=name, value=None, sem=None, n_used=0, upper_limit=None)


def ref_km(name, samples, upper_limit):
    if not samples:
        return _undefined(name)
    curve = fit_km(samples)
    a = max(s.time for s in samples) if upper_limit is None else float(upper_limit)
    rm = rmst(curve, a)
    flag = rm.extrapolated or (
        curve.survival_at(a) > 0.0 and abs(rm.value - a) <= 1e-12 * max(a, 1.0)
    )
    return MetricEstimate(
        name=name,
        value=rm.value,
        sem=math.sqrt(rm.variance / curve.n_samples),
        n_used=curve.n_samples,
        upper_limit=a,
        extrapolation_flag=flag,
    )


def ref_mean(name, values):
    if not values:
        return _undefined(name)
    arr = np.asarray(values, dtype=np.float64)
    sem = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricEstimate(
        name=name, value=float(arr.mean()), sem=sem, n_used=arr.size, upper_limit=None
    )


def reference(name, metas, outcomes, upper_limit=None):
    if name == "km-arl":
        return ref_km(name, ref_arl_samples(metas, outcomes), upper_limit)
    if name == "km-add":
        return ref_km(name, ref_add_samples(metas, outcomes), upper_limit)
    pairs = ref_pair(metas, outcomes)
    if name == "lb-arl":
        values = [
            o.tau for m, o in pairs if m.changepoint_nu == INF and o.tau != INF
        ]
    elif name == "lb-add":
        values = [
            o.tau - m.changepoint_nu
            for m, o in pairs
            if m.changepoint_nu != INF and o.tau != INF and o.tau >= m.changepoint_nu
        ]
    else:
        values = [o.tau for m, o in pairs if o.tau != INF and o.tau < m.changepoint_nu]
    return ref_mean(name, values)


def result(fn, *args):
    """The return value of ``fn``, or the message of the ValueError it raises,
    so that an estimator and its reference must also fail alike."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def labeled_runs(draw):
    """Metas and outcomes with the edge cases drawn often: tau == nu,
    tau == T - 1, nu == 0, nu == T - 1, all taus inf, no sequences."""
    n = draw(st.integers(min_value=0, max_value=12))
    all_inf = draw(st.booleans())
    metas, outcomes = [], []
    for i in range(n):
        T = draw(st.integers(min_value=1, max_value=12))
        nu = draw(
            st.one_of(
                st.just(INF),
                st.just(0.0),
                st.just(float(T - 1)),
                st.integers(min_value=0, max_value=T - 1).map(float),
            )
        )
        taus = [INF, 0.0, float(T - 1), nu]
        tau = draw(
            st.one_of(
                st.sampled_from(taus),
                st.integers(min_value=0, max_value=T - 1).map(float),
            )
        )
        metas.append(SequenceMeta(id=f"s{i}", length_T=T, changepoint_nu=nu))
        outcomes.append(DetectionOutcome(id=f"s{i}", tau=INF if all_inf else tau))
    order = draw(st.permutations(range(n)))
    return metas, [outcomes[i] for i in order]


@given(
    labeled_runs(),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=15.0)),
)
@settings(max_examples=300, deadline=None)
def test_estimates_equal_object_reference(runs, upper_limit):
    metas, outcomes = runs
    by_id = {m.id: m for m in metas}
    lengths = [by_id[o.id].length_T for o in outcomes]
    nu = [by_id[o.id].changepoint_nu for o in outcomes]
    tau = [o.tau for o in outcomes]
    for name in METRIC_NAMES:
        want = result(reference, name, metas, outcomes)
        assert result(compute_metric, name, metas, outcomes) == want
        assert result(estimate, name, lengths, nu, tau) == want
    for name, fn in (("km-arl", km_arl), ("km-add", km_add)):
        want = result(reference, name, metas, outcomes, upper_limit)
        assert result(fn, metas, outcomes, upper_limit) == want
    assert result(arl_samples, metas, outcomes) == result(
        ref_arl_samples, metas, outcomes
    )
    assert result(add_samples, metas, outcomes) == result(
        ref_add_samples, metas, outcomes
    )


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=400),
            st.one_of(st.just(INF), st.integers(min_value=1, max_value=400)),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_uncensored_km_arl_equals_naive_mean(rows):
    # Every alarm precedes min(nu, T): no run-length sample is censored, so
    # the restricted mean up to the largest alarm is the plain mean.
    lengths = np.array([T for T, _, _ in rows], dtype=np.float64)
    nu = np.array([v for _, v, _ in rows], dtype=np.float64)
    tau = np.floor(np.minimum(nu, lengths) * np.array([u for _, _, u in rows]) * 0.999)
    assert (tau < np.minimum(nu, lengths)).all()
    km = estimate("km-arl", lengths, nu, tau).value
    naive = estimate("naive-arl", lengths, nu, tau).value
    assert math.isclose(km, naive, rel_tol=1e-12, abs_tol=1e-12)


def M(i, T, nu=INF):
    return SequenceMeta(id=i, length_T=T, changepoint_nu=nu)


def O(i, tau):
    return DetectionOutcome(id=i, tau=tau)


@pytest.mark.parametrize(
    "metas, outcomes",
    [
        ([M("a", 5), M("a", 5)], [O("a", 1.0)]),
        ([M("a", 5), M("b", 5)], [O("a", 1.0), O("a", 2.0)]),
        ([M("a", 5)], [O("b", 1.0)]),
        ([M("a", 5)], [O("a", 5.0)]),
        ([M("a", 5)], [O("a", -1.0)]),
        ([M("a", 5)], [O("a", math.nan)]),
        ([M("a", 5), M("b", 5)], [O("b", 1.0)]),
    ],
)
def test_columns_raise_as_reference(metas, outcomes):
    with pytest.raises(ValueError) as want:
        ref_pair(metas, outcomes)
    with pytest.raises(ValueError) as got:
        _columns(metas, outcomes)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("alarm", [math.nan, -1.0, 5.0, 5.5])
@pytest.mark.parametrize("name", METRIC_NAMES)
def test_estimate_rejects_alarm_outside_its_sequence(name, alarm):
    # A NaN alarm was censored by km-arl, dropped by naive-arl and turned
    # lb-arl into nan; an alarm past the end was averaged by lb-arl and
    # naive-arl.
    lengths, nu = [5.0, 5.0, 5.0], [INF, 1.0, INF]
    with pytest.raises(ValueError, match="invalid alarm"):
        estimate(name, lengths, nu, [alarm, 2.0, INF])
    with pytest.raises(ValueError, match="invalid alarm"):
        estimate_columns(name, lengths, nu, [[1.0, 3.0], [2.0, alarm], [INF, 4.0]])


@pytest.mark.parametrize("nu, tau", [(1.0, math.nan), (math.nan, 2.0)])
def test_add_columns_keeps_a_nan_for_the_fit_to_reject(nu, tau):
    # The survival command fits add_columns without estimate's checks: a NaN
    # alarm or changepoint must reach the fit as a NaN sample, not be dropped.
    times, events = add_columns(np.array([5.0, 5.0]), np.array([nu, 1.0]), np.array([tau, 3.0]))
    assert times.size == 2
    with pytest.raises(ValueError, match="invalid sample"):
        fit_km_arrays(times, events)


def test_estimate_rejects_unknown_name_and_mean_horizon():
    with pytest.raises(ValueError, match="unknown metric"):
        estimate("nope", [5.0], [INF], [1.0])
    with pytest.raises(ValueError, match="upper_limit"):
        estimate("lb-arl", [5.0], [INF], [1.0], upper_limit=3.0)


GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)
GSR = DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS)


def small_dataset():
    return simulate(
        SimSpec(
            model=GAUSS,
            n_sequences=60,
            length_law=("uniform", 20, 80),
            changepoint_law=("uniform",),
            with_change_fraction=0.7,
            seed=3,
        )
    )


def test_sweep_builds_no_objects(monkeypatch):
    ds = small_dataset()

    def forbidden(*args, **kwargs):
        raise AssertionError("sweep built per-sequence objects")

    monkeypatch.setattr(qcdeval.metrics, "_columns", forbidden)
    monkeypatch.setattr(qcdeval.metrics, "SurvivalSample", forbidden)
    monkeypatch.setattr(qcdeval.harness, "DetectionOutcome", forbidden)
    res = sweep(ds, GSR, [2.0, 50.0, 1e4], METRIC_NAMES)
    assert [set(p.estimates) for p in res.points] == [set(METRIC_NAMES)] * 3


def test_sweep_alarm_at_frame_zero_equals_per_threshold_runs():
    # At threshold 0 every sequence alarms at frame 0, which the alarm table
    # holds as 0 and "no alarm" as -1.
    ds = small_dataset()
    grid = [0.0, 1.0, 50.0]
    res = sweep(ds, GSR, grid, METRIC_NAMES)
    for thr, point in zip(grid, res.points):
        outcomes = run_all(ds, GSR.with_threshold(thr))
        want = {m: compute_metric(m, ds.metas, outcomes) for m in METRIC_NAMES}
        assert point.estimates == want, thr
    assert {o.tau for o in run_all(ds, GSR.with_threshold(0.0))} == {0.0}


@pytest.mark.parametrize("command", ["evaluate", "survival"])
def test_cli_builds_no_objects(monkeypatch, tmp_path, command):
    from qcdeval.cli import main
    from qcdeval.simulate import save_jsonl

    data = tmp_path / "d.jsonl"
    save_jsonl(small_dataset(), data)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{command} built per-sequence objects")

    monkeypatch.setattr(qcdeval.metrics, "_columns", forbidden)
    monkeypatch.setattr(qcdeval.metrics, "SurvivalSample", forbidden)
    monkeypatch.setattr(qcdeval.harness, "DetectionOutcome", forbidden)
    for extra in (["--kind", "arl"], ["--kind", "add"]) if command == "survival" else ([],):
        argv = [command, "--data", str(data), "--detector", "gsr",
                "--model", "gaussian:0,1,1", "--threshold", "50",
                "--out", str(tmp_path / "o.out"), *extra]
        assert main(argv) == 0
