import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdeval.detectors import (
    DetectorConfig,
    LikelihoodModel,
    alarm_frames,
    run_detector,
)
from qcdeval.metrics import INF

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)
POISSON = LikelihoodModel(kind="poisson", lam0=1.0, lam1=4.0)


def gsr_cfg(threshold, omega=0.0):
    return DetectorConfig(kind="gsr", threshold=threshold, model=GAUSS, omega=omega)


def cusum_cfg(threshold):
    return DetectorConfig(kind="cusum", threshold=threshold, model=GAUSS)


class TestLLR:
    def test_gaussian_midpoint_zero(self):
        assert GAUSS.llr(0.05) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        assert GAUSS.llr(1.0) == pytest.approx(0.95, abs=1e-12)

    def test_poisson_zero_count(self):
        assert POISSON.llr(0.0) == pytest.approx(-3.0, abs=1e-12)

    def test_poisson_rejects_non_integer(self):
        with pytest.raises(ValueError):
            POISSON.llr(1.5)
        with pytest.raises(ValueError):
            POISSON.llr(-1.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LikelihoodModel(kind="gaussian", var=0.0)
        with pytest.raises(ValueError):
            LikelihoodModel(kind="poisson", lam0=2.0, lam1=2.0)


class TestGSR:
    def test_unit_ratio_ramp(self):
        # llr == 0 every frame makes R(t) = t + 1
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.0, var=1.0)
        cfg = DetectorConfig(kind="gsr", threshold=10.0, model=model)
        out = run_detector(np.zeros(20), cfg)
        assert out.tau == 9.0

    def test_head_start_immediate(self):
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.0, var=1.0)
        cfg = DetectorConfig(kind="gsr", threshold=10.0, model=model, omega=10.0)
        assert run_detector(np.zeros(5), cfg).tau == 0.0

    def test_unreachable_threshold(self):
        assert run_detector(np.zeros(5), gsr_cfg(1e308)).tau == INF

    def test_double_sum_equivalence(self):
        # Recursive log-space R(t) vs the direct double-sum definition
        # R(t) = omega * prod_{s<=t} L(s) + sum_k prod_{s=k..t} L(s).
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            llr = rng.normal(0.0, 0.7, n)
            L = np.exp(llr)
            omega = float(rng.choice([0.0, 0.5, 2.0]))
            log_r = math.log(omega) if omega > 0 else -math.inf
            for t in range(n):
                log_r = np.logaddexp(log_r, 0.0) + llr[t]
                direct = omega * np.prod(L[: t + 1]) + sum(
                    np.prod(L[k : t + 1]) for k in range(t + 1)
                )
                assert math.exp(log_r) == pytest.approx(direct, rel=1e-10)

    def test_multivariate_rejected(self):
        with pytest.raises(ValueError):
            run_detector(np.zeros((5, 2)), gsr_cfg(10.0))


class TestCUSUM:
    def test_reflection_at_zero(self):
        # Strongly pre-change frames keep W at 0 forever.
        x = np.full(50, -10.0)
        assert run_detector(x, cusum_cfg(0.5)).tau == INF

    def test_linear_ramp(self):
        # x == 1 gives llr = x - 0.5 = +0.5 per frame: W(t) = 0.5 (t+1),
        # threshold 2 -> tau = 3.
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=1.0, var=1.0)
        cfg = DetectorConfig(kind="cusum", threshold=2.0, model=model)
        assert run_detector(np.full(10, 1.0), cfg).tau == 3.0

    def test_zero_threshold_alarms_immediately(self):
        assert run_detector(np.zeros(3), cusum_cfg(0.0)).tau == 0.0

    def test_nonnegativity_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            llr = rng.normal(0, 1, 50)
            w = 0.0
            c = np.cumsum(llr)
            floor = np.minimum(np.minimum.accumulate(c), 0.0)
            for t in range(50):
                w = max(0.0, w + llr[t])
                assert w >= 0.0
                assert w == pytest.approx(c[t] - floor[t], abs=1e-9)


class TestEWMA:
    def cfg(self, threshold, lam=0.2, burn_in=10):
        return DetectorConfig(
            kind="ewma", threshold=threshold, ewma_lambda=lam, burn_in=burn_in
        )

    def test_constant_sequence_never_alarms(self):
        assert run_detector(np.full(100, 3.0), self.cfg(0.5)).tau == INF

    def test_short_sequence_no_alarm(self):
        assert run_detector(np.zeros(5), self.cfg(0.5, burn_in=10)).tau == INF

    def test_step_change_detected(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(0, 1, 50), rng.normal(6, 1, 50)])
        out = run_detector(x, self.cfg(3.0, burn_in=30))
        assert 50 <= out.tau < 70

    def test_degenerate_scale_guard(self):
        x = np.concatenate([np.zeros(10), [1e-6], np.zeros(9)])
        out = run_detector(x, self.cfg(3.0, burn_in=10))
        assert out.tau == 10.0  # any deviation alarms when burn-in std is 0

    def test_lambda_one_is_per_frame_test(self):
        rng = np.random.default_rng(3)
        head = rng.normal(0, 1, 30)
        x = np.concatenate([head, [100.0], rng.normal(0, 1, 10)])
        out = run_detector(x, self.cfg(4.0, lam=1.0, burn_in=30))
        assert out.tau == 30.0


class TestWindow:
    def cfg(self, kind, threshold, w=10, burn_in=10):
        return DetectorConfig(
            kind=kind, threshold=threshold, window_size=w, burn_in=burn_in
        )

    def test_constant_sequence_l1_never_alarms(self):
        out = run_detector(np.full(200, 1.0), self.cfg("window-l1", 0.5))
        assert out.tau == INF

    def test_step_detected_near_step(self):
        x = np.concatenate([np.zeros(60), np.full(60, 10.0)])
        out = run_detector(x, self.cfg("window-l1", 50.0, w=10, burn_in=10))
        assert out.tau != INF
        assert 60 <= out.tau <= 80  # within a window of the step

    def test_zero_threshold_first_evaluable_frame(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 100)
        cfg = self.cfg("window-l1", 0.0, w=10, burn_in=10)
        assert run_detector(x, cfg).tau == 10 + 2 * 10 - 1

    def test_too_short_never_alarms(self):
        cfg = self.cfg("window-l1", 0.0, w=10, burn_in=10)
        assert run_detector(np.zeros(29), cfg).tau == INF

    def test_normal_cost_detects_variance_change(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(0, 0.1, 80), rng.normal(0, 5.0, 80)])
        out = run_detector(x, self.cfg("window-normal", 20.0, w=15, burn_in=15))
        assert 80 <= out.tau <= 115

    def test_multivariate_supported(self):
        rng = np.random.default_rng(7)
        x = np.concatenate(
            [rng.normal(0, 1, (60, 3)), rng.normal(8, 1, (60, 3))], axis=0
        )
        out = run_detector(x, self.cfg("window-l1", 100.0, w=10, burn_in=10))
        assert out.tau != INF


ALL_CONFIGS = [
    gsr_cfg(50.0),
    cusum_cfg(3.0),
    DetectorConfig(kind="ewma", threshold=2.5, burn_in=15),
    DetectorConfig(kind="window-l1", threshold=8.0, window_size=8, burn_in=8),
    DetectorConfig(kind="window-normal", threshold=4.0, window_size=8, burn_in=8),
]


class TestDetectorProperties:
    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.kind)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_online_causality(self, cfg, data):
        # A prefix cut anywhere, also across a 256-frame block edge of the
        # GSR/CUSUM scans, keeps every alarm before the cut at every
        # threshold of the grid and has no alarm where the full run alarms
        # at or after it.
        n = data.draw(st.integers(min_value=1, max_value=800), label="n")
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        cp = data.draw(st.integers(min_value=0, max_value=n), label="cp")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        x = np.random.default_rng(seed).normal(0.0, 0.5, n)
        x[cp:] += 1.0
        grid = cfg.threshold * np.geomspace(1 / 16, 16, 9)
        full = alarm_frames(x, cfg, grid)
        want = np.where(full < k, full, -1)
        np.testing.assert_array_equal(alarm_frames(x[:k], cfg, grid), want)

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.kind)
    def test_threshold_monotonicity(self, cfg):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.normal(0.3, 1.0, 80)
            lo = run_detector(x, cfg.with_threshold(cfg.threshold * 0.25)).tau
            hi = run_detector(x, cfg.with_threshold(cfg.threshold * 4.0)).tau
            assert lo <= hi

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gsr_cusum_alarm_within_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, math.sqrt(0.1), 60)
        for cfg in (gsr_cfg(20.0), cusum_cfg(2.0)):
            tau = run_detector(x, cfg).tau
            assert tau == INF or 0 <= tau < 60


class TestConfigValidation:
    def test_model_requirements(self):
        with pytest.raises(ValueError):
            DetectorConfig(kind="gsr", threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="ewma", threshold=1.0, model=GAUSS)
        with pytest.raises(ValueError):
            DetectorConfig(kind="gsr", threshold=1.0, model=GAUSS, omega=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="nope", threshold=1.0)

    def test_ewma_needs_burn_in(self):
        # With no burn-in frames EWMA has no control limits and never alarms,
        # even on a 50-sigma step; the config rejects it up front.
        with pytest.raises(ValueError, match="burn_in"):
            DetectorConfig(kind="ewma", threshold=3.0, burn_in=0)
        cfg = DetectorConfig(kind="window-l1", threshold=3.0, burn_in=0)
        assert cfg.burn_in == 0


def test_window_normal_cost_stays_finite_on_large_frames():
    # One 1e200 frame overflows the plain window variance to inf, and the
    # gain to inf - inf; the jump must alarm, not read as no alarm.
    from qcdeval.detectors import alarm_frames

    x = np.random.default_rng(0).standard_normal(200)
    x[100] = 1e200
    cfg = DetectorConfig(
        kind="window-normal", threshold=1.0, window_size=10, burn_in=10
    )
    frames = alarm_frames(x, cfg, np.array([5.0, 50.0, 1e3, 1e300]))
    assert frames.tolist() == [47, 100, 100, -1]


def test_window_normal_cost_unchanged_for_finite_variance():
    from qcdeval.detectors import _normal_cost

    rng = np.random.default_rng(1)
    for _ in range(200):
        width, features = rng.integers(1, 40), rng.integers(1, 4)
        scale = 10.0 ** rng.uniform(-5, 100)
        windows = rng.standard_normal((3, width, features)) * scale
        plain = 0.5 * width * np.log(windows.var(axis=1) + 1e-12).sum(axis=1)
        assert np.array_equal(_normal_cost(windows), plain)
