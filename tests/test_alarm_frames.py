"""alarm_frames: one scan of a sequence gives its first alarm at every
threshold, equal to a run of run_detector at each threshold alone.

Thresholds set to a statistic's own per-frame values make exact ties, which
the one-scan path must resolve as the one-threshold runs do, across the
256-frame block edges of the GSR and CUSUM kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdeval.detectors import (
    DetectorConfig,
    LikelihoodModel,
    alarm_frames,
    detector_levels,
    run_detector,
)
from qcdeval.harness import run_all, sweep
from qcdeval.metrics import INF, METRIC_NAMES, compute_metric
from qcdeval.simulate import SimSpec, simulate

from test_kernels import MODELS, cusum_path, frames, gsr_path

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=1.0, var=1.0)

# (config, typical threshold scale) for each of the five detectors.
DETECTORS = [
    (DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS), 100.0),
    (DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS, omega=2.5), 100.0),
    (DetectorConfig(kind="cusum", threshold=1.0, model=GAUSS), 5.0),
    (DetectorConfig(kind="ewma", threshold=1.0, burn_in=15), 3.0),
    (DetectorConfig(kind="window-l1", threshold=1.0, window_size=8, burn_in=8), 10.0),
    (DetectorConfig(kind="window-normal", threshold=1, window_size=8, burn_in=8), 5.0),
]
IDS = ["gsr", "gsr-omega", "cusum", "ewma", "window-l1", "window-normal"]
LENGTHS = (255, 256, 257, 1000)


def one_at_a_time(x, cfg, grid):
    """First alarm frame (-1 = none) of a run_detector call per threshold."""
    taus = [run_detector(x, cfg.with_threshold(float(h))).tau for h in grid]
    return np.array([-1 if t == INF else int(t) for t in taus])


def step_series(n, rng):
    """Unit-variance noise with a one-sigma mean shift 40 frames before the end."""
    x = rng.normal(0.0, 1.0, n)
    x[-40:] += 1.0
    return x


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("cfg,scale", DETECTORS, ids=IDS)
def test_equals_run_detector_per_threshold(cfg, scale, n):
    rng = np.random.default_rng(n)
    x = step_series(n, rng)
    grid = np.concatenate(([0.0, 1e300], scale * np.geomspace(0.01, 100.0, 60)))
    got = alarm_frames(x, cfg, grid)
    assert got.dtype.kind == "i" and got.shape == grid.shape
    np.testing.assert_array_equal(got, one_at_a_time(x, cfg, grid))
    assert got[1] == -1  # 1e300 is never reached


TIE_CASES = [
    (kind, model, n)
    for kind in ("gsr", "gsr-omega", "cusum")
    for model in ("poisson1-3", "gauss0-1")
    for n in LENGTHS
]


@pytest.mark.parametrize(
    "kind,model_name,n", TIE_CASES, ids=["-".join(map(str, c)) for c in TIE_CASES]
)
def test_exact_ties_resolve_as_one_threshold_runs(kind, model_name, n):
    model = MODELS[model_name]
    rng = np.random.default_rng(TIE_CASES.index((kind, model_name, n)))
    x = frames(model, n, rng)
    llr = model.llr(x)
    if kind == "cusum":
        cfg = DetectorConfig(kind="cusum", threshold=1.0, model=model)
        grid = cusum_path(llr)
    else:
        omega = 2.5 if kind == "gsr-omega" else 0.0
        cfg = DetectorConfig(kind="gsr", threshold=1.0, model=model, omega=omega)
        grid = np.exp(gsr_path(llr, omega))
    grid = np.concatenate(([0.0, 1e300], grid))
    got = alarm_frames(x, cfg, grid)
    np.testing.assert_array_equal(got, one_at_a_time(x, cfg, grid))
    # A threshold equal to the statistic at frame t alarms by frame t.
    reached = got[2:]
    assert np.all((reached >= 0) & (reached <= np.arange(n)))
    assert got[0] == 0 and got[1] == -1


@pytest.mark.parametrize("cfg,scale", DETECTORS, ids=IDS)
def test_unsorted_and_shaped_grids(cfg, scale):
    rng = np.random.default_rng(3)
    x = step_series(700, rng)
    grid = scale * np.geomspace(0.01, 100.0, 24)
    sorted_frames = alarm_frames(x, cfg, grid)
    perm = rng.permutation(grid.size)
    np.testing.assert_array_equal(alarm_frames(x, cfg, grid[perm]), sorted_frames[perm])
    shaped = alarm_frames(x, cfg, grid[perm].reshape(4, 6))
    np.testing.assert_array_equal(shaped, sorted_frames[perm].reshape(4, 6))
    assert alarm_frames(x, cfg, np.empty(0)).shape == (0,)
    scalar = alarm_frames(x, cfg, grid[5])
    assert isinstance(scalar, int) and scalar == sorted_frames[5]


@pytest.mark.parametrize("cfg,scale", DETECTORS, ids=IDS)
def test_short_sequences_never_alarm(cfg, scale):
    # Too short for the window detectors or EWMA's burn-in; GSR and CUSUM
    # still scan.
    x = np.full(5, 3.0)
    grid = [scale, 2 * scale]
    got = alarm_frames(x, cfg, grid)
    np.testing.assert_array_equal(got, one_at_a_time(x, cfg, grid))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponents=st.lists(
        st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=30
    ),
)
@settings(max_examples=40, deadline=None)
def test_alarm_frames_non_decreasing_in_threshold(seed, exponents):
    rng = np.random.default_rng(seed)
    x = step_series(int(rng.integers(60, 600)), rng)
    for cfg, scale in DETECTORS:
        grid = np.sort(scale * 10.0 ** np.asarray(exponents))
        got = alarm_frames(x, cfg, grid)
        taus = np.where(got < 0, math.inf, got)
        assert np.all(taus[1:] >= taus[:-1]), cfg.kind


def test_sweep_equals_metrics_of_per_threshold_runs():
    ds = simulate(
        SimSpec(
            model=LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1),
            n_sequences=120,
            length_law=("uniform", 30, 400),
            changepoint_law=("uniform",),
            with_change_fraction=0.7,
            seed=21,
        )
    )
    for cfg, scale in DETECTORS:
        grid = list(scale * np.geomspace(0.05, 20.0, 7))
        res = sweep(ds, cfg, grid, METRIC_NAMES, workers=2)
        for thr, point in zip(grid, res.points):
            outcomes = run_all(ds, cfg.with_threshold(thr))
            want = {m: compute_metric(m, ds.metas, outcomes) for m in METRIC_NAMES}
            assert point.estimates == want, (cfg.kind, thr)


def test_ewma_compares_deviation_to_scaled_width():
    # Thresholds at the ratio |d| / width of each frame where that ratio
    # reaches a new maximum: on some of them h * width rounds above |d|, so
    # the product form, which a one-threshold run uses, and the ratio form
    # alarm at different frames.
    from scipy.signal import lfilter

    from qcdeval import _kernels

    lam, burn_in, mu0, sigma0 = 0.2, 15, 0.1, 1.3
    # A ramp, so that the ratio reaches a new maximum on most frames.
    x = 1e-3 * np.arange(2000.0) + np.random.default_rng(8).normal(0.0, 1e-4, 2000)
    d, _ = lfilter([lam], [1.0, -(1.0 - lam)], x - mu0, zi=[0.0])
    t = np.arange(x.size, dtype=np.float64)
    decay = (1.0 - lam) ** (2.0 * (t + 1.0))
    width = sigma0 * np.sqrt(lam / (2.0 - lam) * (1.0 - decay))
    dev = np.abs(d)
    ratio = (dev / width)[burn_in:]
    grid = ratio[ratio >= np.maximum.accumulate(ratio)]

    def first(hit):
        idx = np.flatnonzero(hit[burn_in:])
        return int(idx[0]) + burn_in if idx.size else -1

    want = [first(dev >= h * width) for h in grid]
    assert want != [first(dev / width >= h) for h in grid]
    got = _kernels.ewma_first_alarm(x, lam, grid, burn_in, mu0, sigma0)
    np.testing.assert_array_equal(got, want)


def test_first_crossings_is_a_first_greater_or_equal():
    from qcdeval._kernels import first_crossings

    rng = np.random.default_rng(4)
    for n in (0, 1, 7, 300):
        stat = rng.normal(0.0, 1.0, n)
        # NaN reaches no level above -inf, as under >=.
        stat[rng.random(n) < 0.2] = np.nan
        levels = np.concatenate(([1e300, 0.0, np.inf], rng.normal(0.0, 1.5, 40)))
        for start in (0, 3):
            want = []
            for level in levels:
                idx = np.flatnonzero(stat[start:] >= level)
                want.append(int(idx[0]) + start if idx.size else -1)
            np.testing.assert_array_equal(first_crossings(stat, levels, start), want)
            assert first_crossings(stat, 0.0, start) == want[1]


@pytest.mark.parametrize("cfg,scale", DETECTORS, ids=IDS)
def test_nan_threshold_rejected(cfg, scale):
    # A NaN level would alarm GSR at frame 0 and never alarm the others.
    x = step_series(100, np.random.default_rng(0))
    for grid in ([math.nan], [1.0, math.nan, scale], math.nan, [[scale], [math.nan]]):
        with pytest.raises(ValueError, match="threshold grid must not contain NaN"):
            alarm_frames(x, cfg, grid)


@pytest.mark.parametrize("cfg,scale", DETECTORS, ids=IDS)
def test_detector_levels(cfg, scale):
    grid = [[-1.0, 0.0], [2.5, scale]]
    levels = detector_levels(cfg, grid)
    assert levels.dtype == np.float64 and levels.shape == (4,)
    if cfg.kind == "gsr":
        want = [-math.inf, -math.inf, math.log(2.5), math.log(scale)]
    else:
        want = [-1.0, 0.0, 2.5, scale]
    assert levels.tolist() == want
