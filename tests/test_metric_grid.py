"""``metrics.estimate_columns``, the one pass behind ``sweep``, against the
per-cell path it replaced.

The reference below is that path: for every column of the alarm table and
every metric, ``arl_columns``/``add_columns`` on the column, then
``fit_km_arrays`` and ``rmst`` for the KM metrics, or one mean and standard
deviation of the column's selection. Every ``MetricEstimate`` field must
agree bit for bit (their reprs are compared, so -0.0 and 0.0 differ).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdeval import metrics, survival
from qcdeval.detectors import DetectorConfig, LikelihoodModel
from qcdeval.harness import alarm_columns, sweep
from qcdeval.metrics import (
    INF,
    METRIC_NAMES,
    MetricEstimate,
    add_columns,
    arl_columns,
    estimate,
    estimate_columns,
)
from qcdeval.simulate import SimSpec, simulate
from qcdeval.survival import fit_km_arrays, rmst


def _undefined(name):
    return MetricEstimate(name=name, value=None, sem=None, n_used=0, upper_limit=None)


def ref_km(name, times, events, upper_limit):
    if times.size == 0:
        return _undefined(name)
    curve = fit_km_arrays(times, events)
    a = float(times.max()) if upper_limit is None else float(upper_limit)
    rm = rmst(curve, a)
    flag = rm.extrapolated or (
        curve.survival_at(a) > 0.0 and abs(rm.value - a) <= 1e-12 * max(a, 1.0)
    )
    return MetricEstimate(name=name, value=rm.value, sem=math.sqrt(rm.variance / curve.n_samples),
                          n_used=curve.n_samples, upper_limit=a, extrapolation_flag=flag)


def ref_mean(name, arr):
    if arr.size == 0:
        return _undefined(name)
    sem = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricEstimate(name=name, value=float(arr.mean()), sem=sem, n_used=arr.size,
                          upper_limit=None)


def ref_estimate(name, lengths, nu, tau, upper_limit=None):
    if name == "km-arl":
        return ref_km(name, *arl_columns(lengths, nu, tau), upper_limit)
    if name == "km-add":
        return ref_km(name, *add_columns(lengths, nu, tau), upper_limit)
    if name == "lb-arl":
        return ref_mean(name, tau[(nu == INF) & (tau != INF)])
    if name == "lb-add":
        hit = (nu != INF) & (tau != INF) & (tau >= nu)
        return ref_mean(name, tau[hit] - nu[hit])
    return ref_mean(name, tau[tau < nu])


def assert_cells_equal(lengths, nu, taus, upper_limit=None):
    lengths, nu, taus = (np.asarray(a, dtype=np.float64) for a in (lengths, nu, taus))
    wants = {}
    for name in METRIC_NAMES:
        limit = upper_limit if name.startswith("km") else None
        got = estimate_columns(name, lengths, nu, taus, limit)
        want = [ref_estimate(name, lengths, nu, tau, limit) for tau in taus.T]
        assert list(map(repr, got)) == list(map(repr, want)), name
        for j, tau in enumerate(taus.T):
            assert repr(estimate(name, lengths, nu, tau, limit)) == repr(want[j])
        wants[name] = list(map(repr, want))
    # The call sweep makes: every metric from one ARL and one ADD table, each
    # name twice, as --metrics km-arl,km-arl sends it.
    names = METRIC_NAMES if upper_limit is None else ("km-arl", "km-add")
    for name, got in metrics._estimates(names * 2, lengths, nu, taus, upper_limit).items():
        assert list(map(repr, got)) == wants[name], name
    return taus.shape


def test_zero_horizon_with_every_delay_zero():
    # Every with-change sequence alarms at its change: the KM-ADD samples
    # are all events at 0 and the horizon is 0. S(0) counts the drop at 0,
    # so it is 0 and the cell is not flagged.
    lengths, nu = [5, 6, 7, 8], [2, 3, 1, INF]
    taus = [[2, 2], [3, 3], [1, 1], [INF, 4]]
    assert_cells_equal(lengths, nu, taus)
    (cell,) = estimate_columns("km-add", lengths, nu, [[2], [3], [1], [INF]])
    assert (cell.value, cell.upper_limit, cell.extrapolation_flag) == (0.0, 0.0, False)


def test_threshold_without_eligible_add_rows():
    # Column 0: every with-change sequence alarms before its change.
    lengths, nu = [10, 10, 10, 10], [5, 6, INF, 7]
    taus = [[1, 8, INF], [2, INF, INF], [3, 3, INF], [0, 9, 8]]
    assert_cells_equal(lengths, nu, taus)
    assert estimate_columns("km-add", lengths, nu, taus)[0] == _undefined("km-add")


def test_every_sample_censored():
    lengths, nu = [10, 20, 30], [INF, 4, INF]
    assert_cells_equal(lengths, nu, np.full((3, 3), INF))


def test_upper_limit_above_the_data_flags():
    lengths, nu = [10, 20, 30, 12], [INF, 4, INF, 2]
    taus = [[3, 9], [6, 19], [INF, 29], [2, INF]]
    assert_cells_equal(lengths, nu, taus, upper_limit=100.0)
    assert all(c.extrapolation_flag for c in estimate_columns("km-arl", lengths, nu, taus, 100.0))
    assert_cells_equal(lengths, nu, taus, upper_limit=0.0)
    with pytest.raises(ValueError, match="invalid upper_limit"):
        estimate_columns("km-arl", lengths, nu, taus, -1.0)


def test_tied_event_and_censoring_times():
    # Alarms at 4 and 6 tie with censorings at 4 and 6, and delays of 2 tie
    # with a censored delay of 2.
    lengths, nu = [4, 6, 10, 10, 8, 12], [INF, INF, INF, 4, 6, 10]
    taus = [[INF, 3], [INF, 5], [4, 4], [6, 6], [INF, 6], [INF, 11]]
    assert_cells_equal(lengths, nu, taus)


def test_one_sequence_and_one_threshold():
    assert_cells_equal([7], [INF], [[3.0]])
    assert_cells_equal([7], [2], [[INF]])
    assert_cells_equal([7], [2], [[1.0, 2.0, 6.0, INF]])
    assert_cells_equal(np.empty(0), np.empty(0), np.empty((0, 3)))


def test_table_over_several_blocks():
    rng = np.random.default_rng(3)
    n, k = 3000, 12
    assert survival._BLOCK_SAMPLES // n < k  # more than one block of rows
    lengths = rng.integers(30, 301, n).astype(float)
    nu = np.where(rng.random(n) < 0.9, np.floor(rng.random(n) * lengths), INF)
    taus = np.floor(rng.random((n, k)) * lengths[:, None] * 1.5)
    taus[taus >= lengths[:, None]] = INF
    assert_cells_equal(lengths, nu, taus)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, 6))
    lengths = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), float)
    nu = np.array([draw(st.sampled_from([INF, *(math.floor(t * f) for f in (0.0, 0.5, 0.9))]))
                   for t in lengths])
    taus = np.array([[draw(st.sampled_from([INF, *range(int(t))])) for _ in range(k)]
                     for t in lengths], dtype=float)
    limit = draw(st.sampled_from([None, 0.0, 0.5, 3.0, 7.0, 50.0]))
    return lengths, nu, taus, limit


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tables())
def test_random_tables_equal_per_cell_path(table):
    assert_cells_equal(*table)


def test_sweep_equals_per_cell_path():
    model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)
    dataset = simulate(SimSpec(model=model, n_sequences=400, length_law=("uniform", 30, 300),
                               changepoint_law=("uniform",), with_change_fraction=0.9, seed=4))
    config = DetectorConfig(kind="gsr", threshold=None, model=model)
    grid = np.geomspace(1.0, 1e6, 40).tolist()
    lengths, nu, taus = alarm_columns(dataset, config, grid)
    result = sweep(dataset, config, grid, METRIC_NAMES)
    for point, tau in zip(result.points, taus.T):
        assert [repr(point.estimates[name]) for name in METRIC_NAMES] == [
            repr(ref_estimate(name, lengths, nu, tau)) for name in METRIC_NAMES
        ]
