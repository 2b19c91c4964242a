import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from qcdeval.detectors import DetectorConfig, LikelihoodModel, alarm_frames
from qcdeval import oracle
from qcdeval.metrics import MetricEstimate
from qcdeval.oracle import (
    Dist,
    MCEstimate,
    _first_alarms,
    bias_bounds,
    true_add_mc,
    true_arl_mc,
    truncation_ordering_check,
)
from qcdeval.survival import rmst_km_batch

GAUSS = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.1, var=0.1)
POISSON = LikelihoodModel(kind="poisson", lam0=1.0, lam1=2.0)
EXP, UNIF = Dist("exp", 1.0), Dist("unif", 0.0, 2.0)
EVENT_TABLE = Dist("empirical", [0.3, 0.8, 1.5, 2.0], [0.25, 0.25, 0.3, 0.2])
CENSOR_TABLE = Dist("empirical", [3.0, 0.5, 1.0, 1.0], [0.4, 0.2, 0.3, 0.1])


def mean_sem(taus):
    return float(np.mean(taus)), float(np.std(taus, ddof=1) / math.sqrt(len(taus)))


class TestDist:
    def test_exp_restricted_mean(self):
        d = Dist("exp", 1.0)
        assert d.restricted_mean(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1e9) == pytest.approx(1.0)

    def test_unif_restricted_mean(self):
        d = Dist("unif", 0.0, 2.0)
        # S(t) = 1 - t/2 on [0,2]; integral over [0,1] = 1 - 1/4
        assert d.restricted_mean(1.0) == pytest.approx(0.75, abs=1e-12)
        assert d.restricted_mean(2.0) == pytest.approx(1.0, abs=1e-12)
        assert d.restricted_mean(5.0) == pytest.approx(1.0, abs=1e-12)

    def test_empirical(self):
        d = Dist("empirical", [1.0, 3.0], [0.5, 0.5])
        assert d.restricted_mean(2.0) == pytest.approx(1.5)
        assert d.cdf(1.0) == pytest.approx(0.5)

    def test_parse(self):
        assert Dist.parse("exp:2").rate == 2.0
        assert Dist.parse("unif:0,2").hi == 2.0
        with pytest.raises(ValueError):
            Dist.parse("weibull:1")

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("exp", (math.nan,)),
            ("exp", (math.inf,)),
            ("unif", (0.0, math.inf)),
            ("empirical", ([1.0], [math.nan])),
            ("empirical", ([math.nan, 1.0], [0.5, 0.5])),
            ("empirical", ([math.inf, 1.0], [0.5, 0.5])),
            ("empirical", ([1.0, 2.0, 3.0], [0.5, -0.5, 1.0])),
            ("empirical", ([1.0, 2.0], [1.0])),
        ],
        ids=["exp-nan", "exp-inf", "unif-inf", "emp-nan-prob", "emp-nan-time",
             "emp-inf-time", "emp-negative-prob", "emp-lengths"],
    )
    def test_rejects_non_finite_or_out_of_range_parameters(self, kind, params):
        with pytest.raises(ValueError):
            Dist(kind, *params)

    def test_sampling_matches_cdf(self):
        rng = np.random.default_rng(0)
        for d in (Dist("exp", 1.3), Dist("unif", 0.5, 2.0)):
            x = d.sample(rng, 20_000)
            emp = np.mean(x <= 1.0)
            assert abs(emp - d.cdf(1.0)) < 0.02


class TestBiasBounds:
    def test_no_censoring_zero_bounds(self):
        # Censoring supported entirely above the horizon: G == 0 on [0, a].
        rep = bias_bounds(Dist("exp", 1.0), Dist("unif", 5.0, 6.0), n=5, a=1.0)
        assert rep.lower == pytest.approx(0.0, abs=1e-12)
        assert rep.upper == pytest.approx(0.0, abs=1e-12)
        assert rep.contained

    def test_sign_and_containment(self):
        rep = bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), n=5, a=1.0)
        assert rep.lower <= 0.0 <= rep.upper
        assert rep.contained

    def test_monotone_in_n(self):
        ev, ce = Dist("exp", 1.0), Dist("unif", 0.0, 2.0)
        uppers = [bias_bounds(ev, ce, n, 1.0).upper for n in (5, 20, 100)]
        lowers = [bias_bounds(ev, ce, n, 1.0).lower for n in (5, 20, 100)]
        assert uppers[0] > uppers[1] > uppers[2]
        assert abs(lowers[0]) > abs(lowers[1]) > abs(lowers[2])

    def test_empirical_event_law(self):
        ev = Dist("empirical", [0.3, 0.8], [0.5, 0.5])
        rep = bias_bounds(ev, Dist("unif", 0.0, 2.0), n=5, a=1.0)
        assert rep.lower <= 0.0 <= rep.upper

    def test_deterministic_given_seed(self):
        a = bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0, seed=9)
        b = bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0, seed=9)
        assert a == b

    def test_cell_peak_memory(self):
        # One n=100, 10k-rep cell: the event draw, 8 B per sample, plus one
        # block of censoring draws, flags and product-limit work arrays.
        tracemalloc.start()
        try:
            bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), n=100, a=1.0,
                        mc_reps=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20, peak

    def test_peak_grows_by_the_event_draw_alone(self):
        # From 10k to 40k reps at n=100 only the event draw (8 B per sample)
        # and the restricted means (8 B per rep) grow. Drawing the censoring
        # times and flags for every rep at once would add 9 B per sample.
        peaks = []
        for reps in (10_000, 40_000):
            tracemalloc.start()
            try:
                bias_bounds(EXP, UNIF, n=100, a=1.0, mc_reps=reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_sample = (peaks[1] - peaks[0]) / (30_000 * 100)
        assert per_sample <= 8.8, per_sample

    @pytest.mark.parametrize(
        "event,censor,n,mc_reps",
        [
            (EXP, UNIF, 100, 2000),  # 655-row blocks, the last one short
            (Dist("unif", 0.0, 1.0), EXP, 7, 12_345),
            (EXP, UNIF, 20, 2),
            (EVENT_TABLE, CENSOR_TABLE, 5, 30_000),
            (EVENT_TABLE, UNIF, 70_000, 3),  # one row per block
        ],
        ids=["exp-unif-100", "unif-exp-7", "two-reps", "tables", "n-past-block"],
    )
    def test_blocked_draws_are_bit_identical_to_one_draw(self, event, censor, n, mc_reps):
        rep = bias_bounds(event, censor, n=n, a=1.0, mc_reps=mc_reps, seed=7)
        assert (rep.mc_bias, rep.mc_ci_halfwidth) == one_draw_mc_bias(
            event, censor, n, 1.0, mc_reps, seed=7
        )


def one_draw_mc_bias(event, censor, n, a, mc_reps, seed):
    """The Monte-Carlo side of bias_bounds from one event draw and one
    censoring draw of every replication, fitted in one rmst_km_batch call:
    (mc_bias, mc_ci_halfwidth)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    ev = event.sample(rng, (mc_reps, n))
    ce = censor.sample(rng, (mc_reps, n))
    values = rmst_km_batch(np.minimum(ev, ce), ev < ce, a)
    mc_bias = float(np.mean(values - event.restricted_mean(a)))
    return mc_bias, 3.0 * float(values.std(ddof=1)) / math.sqrt(mc_reps)


BREAKPOINT_PAIRS = [
    ("exp:1", "unif:0,2"),
    ("unif:0,1", "exp:1"),
    ("exp:1", "exp:0.5"),
    ("unif:0,2", "unif:0,3"),
    ("exp:2", "unif:0,1"),
    ("unif:0.5,3", "unif:1,2"),
]


def reference_bounds(event, censor, n, a):
    """The bound integrals by adaptive quadrature, split at the censoring
    law's breakpoints."""
    from scipy.integrate import quad

    lo, hi = event.support()
    lo, hi = max(0.0, lo), min(a, hi)
    if hi <= lo:
        return 0.0, 0.0

    def core(t):
        g = np.asarray(censor.cdf(t)).item()  # an empirical cdf returns shape (1,)
        h = 1.0 - (1.0 - float(event.cdf(t))) * (1.0 - g)
        return g * h ** (n - 1) * float(event.pdf(t))

    breaks = censor.times if censor.kind == "empirical" else censor.support()
    points = [b for b in breaks if lo < b < hi] or None
    opts = dict(points=points, epsabs=0.0, epsrel=1e-13, limit=200)
    lower = -quad(lambda t: t * core(t), lo, hi, **opts)[0]
    upper = a * quad(core, lo, hi, **opts)[0]
    return lower, upper


class TestBoundQuadrature:
    @pytest.mark.parametrize("event,censor", BREAKPOINT_PAIRS)
    def test_converges_past_the_censoring_support(self, quad_nodes, event, censor):
        # Horizons beyond the censoring law's support put its breakpoints
        # inside the rule; a single Gauss-Legendre piece never converges there.
        ev, ce = Dist.parse(event), Dist.parse(censor)
        for n in (1, 2, 5, 20, 100, 500):
            for a in (0.1, 0.5, 1.0, 2.0, 5.0):
                rep = bias_bounds(ev, ce, n=n, a=a, mc_reps=2, seed=1)
                assert rep.lower <= 0.0 <= rep.upper
                want = reference_bounds(ev, ce, n, a)
                scale = max(abs(want[0]) + abs(want[1]), 1e-300)
                err = abs(rep.lower - want[0]) + abs(rep.upper - want[1])
                assert err <= 1e-10 * scale, (n, a, rep, want)
        assert max(quad_nodes) <= 128

    def test_empirical_censoring_law(self, quad_nodes):
        ev = Dist("exp", 1.0)
        ce = Dist("empirical", [3.0, 0.5, 1.0, 1.0], [0.4, 0.2, 0.3, 0.1])
        rep = bias_bounds(ev, ce, n=5, a=2.0, mc_reps=4000, seed=2)
        want = reference_bounds(ev, ce, 5, 2.0)
        assert rep.lower == pytest.approx(want[0], rel=1e-10)
        assert rep.upper == pytest.approx(want[1], rel=1e-10)
        assert rep.contained

    def test_one_piece_cells_keep_their_bits(self):
        # Breakpoints on or outside [0, a] leave a single rule: the values
        # recorded before the rule was split.
        rep = bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0, mc_reps=100)
        assert (rep.lower, rep.upper) == (-0.018931146191489636, 0.02395161712015023)
        rep = bias_bounds(Dist("unif", 0.0, 1.0), Dist("exp", 1.0), 20, 0.5, mc_reps=100)
        assert (rep.lower, rep.upper) == (-6.5979804432464075e-06, 7.040424899902142e-06)

    def test_node_cap_checked_before_the_rule_is_built(self, monkeypatch):
        seen = []

        def never_converges(event, censor, n, a, q):
            seen.append(q)
            return -float(len(seen)), float(len(seen))

        monkeypatch.setattr(oracle, "_bound_integrals", never_converges)
        with pytest.raises(RuntimeError, match="did not converge by 4096 nodes"):
            bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0)
        assert seen == [64, 128, 256, 512, 1024, 2048, 4096]

    def test_exact_zero_bounds_give_exact_zero_bias(self):
        # Every event lies beyond the horizon: each restricted mean equals
        # the truth, so the bias is 0.0, not a rounding residue of the mean.
        rep = bias_bounds(Dist("unif", 0.5, 3.0), Dist("unif", 1.0, 2.0), 5, 0.1,
                          mc_reps=2000)
        assert (rep.lower, rep.upper, rep.mc_bias) == (0.0, 0.0, 0.0)
        assert rep.contained

    def test_rule_is_cached_and_read_only(self):
        x, w = oracle._gauss_legendre(64)
        assert oracle._gauss_legendre(64)[0] is x
        want_x, want_w = leggauss(64)
        assert x.tolist() == want_x.tolist() and w.tolist() == want_w.tolist()
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, quad_nodes, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), n, 1.0)

    @pytest.mark.parametrize("n", [2.5, 5.0])
    def test_rejects_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), n, 1.0, mc_reps=2)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_horizon(self, quad_nodes, a):
        with pytest.raises(ValueError, match="a must be finite and >= 0"):
            bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, a)


class TestTrueARL:
    def test_deterministic_alarm_time(self):
        # Threshold 0 alarms at frame 0 on every replication: value exact,
        # SEM exactly 0.
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=1.0, var=1.0)
        cfg = DetectorConfig(kind="cusum", threshold=0.0, model=model)
        est = true_arl_mc(model, cfg, n_reps=500, horizon_cap=100, seed=0)
        assert est.value == 0.0 and est.sem == 0.0

    def test_gsr_unit_ratio_ramp(self):
        # Degenerate model mu0 == mu1 gives llr == 0, R(t) = t + 1: the
        # threshold-k alarm is deterministic at frame k - 1.
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=0.0, var=1.0)
        cfg = DetectorConfig(kind="gsr", threshold=10.0, model=model)
        est = true_arl_mc(model, cfg, n_reps=200, horizon_cap=100, seed=0)
        assert est.value == 9.0 and est.sem == 0.0

    def test_cap_error(self):
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=-1.0, var=1.0)
        # post-change mean below pre-change: llr negative on pre-change data,
        # CUSUM never climbs
        cfg = DetectorConfig(kind="cusum", threshold=50.0, model=model)
        with pytest.raises(RuntimeError, match="horizon_cap"):
            true_arl_mc(model, cfg, n_reps=100, horizon_cap=200, seed=0)

    def test_unsupported_detector(self):
        cfg = DetectorConfig(kind="ewma", threshold=3.0)
        with pytest.raises(ValueError, match="gsr/cusum"):
            true_arl_mc(GAUSS, cfg, n_reps=10, horizon_cap=100)

    def test_reproducible(self):
        cfg = DetectorConfig(kind="gsr", threshold=30.0, model=GAUSS)
        a = true_arl_mc(GAUSS, cfg, n_reps=2000, horizon_cap=5000, seed=3)
        b = true_arl_mc(GAUSS, cfg, n_reps=2000, horizon_cap=5000, seed=3)
        assert a == b

    def test_matches_sequence_detector(self):
        # The batched oracle stepping must agree with the per-sequence
        # detector on identical inputs: alarm frames at a mid threshold have
        # the distribution implied by run_detector, so the means should agree
        # within MC noise on moderate samples.
        from qcdeval.detectors import run_detector

        cfg = DetectorConfig(kind="cusum", threshold=3.0, model=GAUSS)
        est = true_arl_mc(GAUSS, cfg, n_reps=4000, horizon_cap=10_000, seed=5)
        rng = np.random.default_rng(99)
        taus = []
        for _ in range(1000):
            x = rng.normal(0.0, math.sqrt(0.1), 20_000)
            tau = run_detector(x, cfg).tau
            assert tau != math.inf
            taus.append(tau)
        mean = float(np.mean(taus))
        sem = float(np.std(taus, ddof=1) / math.sqrt(len(taus)))
        assert abs(mean - est.value) <= 4 * math.hypot(sem, est.sem)

    def test_poisson_matches_sequence_detector(self):
        from qcdeval.detectors import run_detector

        cfg = DetectorConfig(kind="cusum", threshold=3.0, model=POISSON)
        est = true_arl_mc(POISSON, cfg, n_reps=4000, horizon_cap=10_000, seed=5)
        rng = np.random.default_rng(99)
        taus = []
        for _ in range(1000):
            x = rng.poisson(1.0, 5000).astype(np.float64)
            tau = run_detector(x, cfg).tau
            assert tau != math.inf
            taus.append(tau)
        mean, sem = mean_sem(taus)
        assert abs(mean - est.value) <= 4 * math.hypot(sem, est.sem)


class TestTrueADD:
    def test_nu_zero_matches_full_post_change(self):
        cfg = DetectorConfig(kind="cusum", threshold=5.0, model=GAUSS)
        est = true_add_mc(
            GAUSS, cfg, ("fixed", 0), n_reps=3000, horizon_cap=20_000, seed=4
        )
        assert est.retention_fraction == 1.0
        assert est.value > 0

    def test_poisson_nu_zero(self):
        # Changepoint 0: every frame is post-change, so no replication can
        # false-alarm and the delay is the first-alarm time on post-change
        # streams.
        from qcdeval.detectors import run_detector

        cfg = DetectorConfig(kind="gsr", threshold=50.0, model=POISSON)
        kw = dict(n_reps=3000, horizon_cap=20_000, seed=4)
        est = true_add_mc(POISSON, cfg, ("fixed", 0), **kw)
        assert est.retention_fraction == 1.0
        assert est == true_add_mc(POISSON, cfg, ("fixed", 0), **kw)
        rng = np.random.default_rng(7)
        taus = [
            run_detector(rng.poisson(2.0, 500).astype(np.float64), cfg).tau
            for _ in range(1000)
        ]
        mean, sem = mean_sem(taus)
        assert abs(mean - est.value) <= 4 * math.hypot(sem, est.sem)

    def test_geometric_law_runs(self):
        cfg = DetectorConfig(kind="gsr", threshold=50.0, model=GAUSS)
        est = true_add_mc(
            GAUSS,
            cfg,
            ("geometric", 0.01),
            n_reps=5000,
            horizon_cap=40_000,
            seed=4,
        )
        assert 0 < est.retention_fraction < 1
        assert est.value > 0

    def test_reproducible(self):
        cfg = DetectorConfig(kind="gsr", threshold=20.0, model=GAUSS)
        kw = dict(n_reps=2000, horizon_cap=20_000, seed=8)
        assert true_add_mc(GAUSS, cfg, ("geometric", 0.01), **kw) == true_add_mc(
            GAUSS, cfg, ("geometric", 0.01), **kw
        )

    @pytest.mark.parametrize("nu", [-5, -0.5, 2.5, math.inf, math.nan])
    def test_fixed_law_rejects_nu_that_is_not_an_integer_from_zero(self, nu):
        # A negative nu used to lengthen every delay by -nu, a fractional one
        # to measure delays from a frame that does not exist.
        cfg = DetectorConfig(kind="gsr", threshold=50.0, model=GAUSS)
        with pytest.raises(ValueError, match="fixed changepoint law"):
            true_add_mc(GAUSS, cfg, ("fixed", nu), n_reps=10, horizon_cap=100, seed=1)


class RecordingGenerator:
    """A Generator that keeps a copy of every frame draw it hands out."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        self.draws = []

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        self.draws.append(z.copy())
        return z

    def poisson(self, lam):
        k = self.rng.poisson(lam)
        self.draws.append(k.copy())
        return k


class TestSharedEstimator:
    # Both oracles are one estimator: origin 0 on pre-change-only streams for
    # the ARL, origin nu for the ADD. These values were recorded before the
    # two were merged, so no draw has moved.
    def test_arl_values_recorded_before_the_merge(self):
        cfg = DetectorConfig(kind="gsr", threshold=30.0, model=GAUSS)
        assert true_arl_mc(GAUSS, cfg, 2000, 5000, seed=3) == MCEstimate(
            value=36.188, sem=0.5441106102421538, n_reps=2000, cap_fraction=0.0,
            retention_fraction=1.0,
        )

    def test_add_values_recorded_before_the_merge(self):
        cfg = DetectorConfig(kind="cusum", threshold=3.0, model=POISSON)
        est = true_add_mc(POISSON, cfg, ("geometric", 0.02), 2000, 5000, seed=3)
        assert est == MCEstimate(
            value=6.451384417256922, sem=0.13895824071812946, n_reps=2000,
            cap_fraction=0.0, retention_fraction=0.7765,
        )

    def test_capped_replications_count_as_retained(self):
        # CUSUM on a downward model never alarms: every replication is capped
        # and retained, in both oracles.
        model = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=-1.0, var=1.0)
        cfg = DetectorConfig(kind="cusum", threshold=50.0, model=model)
        with pytest.raises(RuntimeError, match="100/100 retained replications hit the cap"):
            true_arl_mc(model, cfg, n_reps=100, horizon_cap=50, seed=0)
        with pytest.raises(RuntimeError, match="100/100 retained replications hit the cap"):
            true_add_mc(model, cfg, ("fixed", 10), n_reps=100, horizon_cap=50, seed=0)


    @pytest.mark.parametrize("reps", [2.5, 10.0, np.int64(10)])
    @pytest.mark.parametrize("name", ["mc_reps", "n_reps (arl)", "n_reps (add)"])
    def test_replication_count_must_be_an_integer(self, name, reps):
        cfg = DetectorConfig(kind="gsr", threshold=5.0, model=GAUSS)
        calls = {
            "mc_reps": lambda: bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0,
                                           mc_reps=reps),
            "n_reps (arl)": lambda: true_arl_mc(GAUSS, cfg, n_reps=reps, horizon_cap=2000),
            "n_reps (add)": lambda: true_add_mc(GAUSS, cfg, ("fixed", 3), n_reps=reps,
                                                horizon_cap=2000),
        }
        if isinstance(reps, float):
            with pytest.raises(ValueError, match=f"{name.split()[0]} must be an integer"):
                calls[name]()
        else:
            calls[name]()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.9, np.uint64(2**64 - 1), True, False])
    @pytest.mark.parametrize("name", ["bias_bounds", "true_arl_mc", "true_add_mc"])
    def test_seed_must_be_one_uint64(self, name, seed):
        # -1 and 2**64 raised OverflowError, 1.9 ran as seed 1, and True and
        # False as seeds 1 and 0.
        cfg = DetectorConfig(kind="gsr", threshold=5.0, model=GAUSS)
        calls = {
            "bias_bounds": lambda: bias_bounds(Dist("exp", 1.0), Dist("unif", 0.0, 2.0), 5, 1.0,
                                               mc_reps=10, seed=seed),
            "true_arl_mc": lambda: true_arl_mc(GAUSS, cfg, n_reps=10, horizon_cap=2000,
                                               seed=seed),
            "true_add_mc": lambda: true_add_mc(GAUSS, cfg, ("fixed", 3), n_reps=10,
                                               horizon_cap=2000, seed=seed),
        }
        if isinstance(seed, np.integer):
            calls[name]()
        else:
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                calls[name]()


class TestFirstAlarmLoop:
    """Rebuild each replication's stream from the recorded draws and rescan it
    with the sequence detector."""

    CASES = {
        # kind, threshold, model, changepoints drawn from [0, nu_max) or None
        "gsr-gauss-arl": ("gsr", 60.0, GAUSS, None),
        "cusum-gauss-add": ("cusum", 6.0, GAUSS, 40),
        "gsr-poisson-add": ("gsr", 300.0, POISSON, 200),
        "cusum-poisson-arl": ("cusum", 3.0, POISSON, None),
    }

    @staticmethod
    def frame(model, draw, post):
        if model.kind == "gaussian":
            return draw * math.sqrt(model.var) + np.where(post, model.mu1, model.mu0)
        return draw.astype(np.float64)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_streams_rebuilt_from_draws_rescan_to_tau(self, case):
        kind, threshold, model, nu_max = self.CASES[case]
        cfg = DetectorConfig(kind=kind, threshold=threshold, model=model)
        n_reps, cap = 200, 150
        if nu_max is None:
            nus = np.full(n_reps, math.inf)
        else:
            nus = np.random.default_rng(3).integers(0, nu_max, n_reps).astype(float)
        rng = RecordingGenerator(11)
        tau = _first_alarms(model, cfg, nus, cap, rng)
        capped = tau < 0
        # The case must exercise alarms at several frames and the cap.
        assert 0 < capped.sum() < n_reps and np.unique(tau).size > 10

        # Every drawn value is read: one per frame up to the alarm, or up to
        # the cap.
        assert sum(d.size for d in rng.draws) == int(
            np.sum(tau[~capped] + 1) + cap * capped.sum()
        )
        streams = np.full((n_reps, cap), np.nan)
        for t, draw in enumerate(rng.draws):
            rows = np.flatnonzero((tau >= t) | capped)  # ascending rep order
            assert draw.size == rows.size
            streams[rows, t] = self.frame(model, draw, nus[rows] <= t)
        for i in range(n_reps):
            x = streams[i, : cap if capped[i] else tau[i] + 1]
            assert not np.isnan(x).any()
            assert alarm_frames(x, cfg, threshold) == tau[i], i


class TestGsrStep:
    def step(self, s):
        got = s.copy()
        oracle._gsr_step(got, np.zeros_like(s))
        return got

    def test_equals_logaddexp_at_the_edges(self):
        s = np.array([-math.inf, -1e308, -745.0, -1.0, 0.0, 1.0, 745.0, 1e308])
        assert self.step(s).tolist() == np.logaddexp(s, 0.0).tolist()

    def test_within_three_ulp_of_logaddexp(self):
        # logaddexp(s, 0) is max(s, 0) + log1p(exp(-|s|)) through scalar libm
        # calls. The vectorised exp and log1p are each within 1 ulp of libm:
        # 1 ulp in exp(-|s|) moves log1p's result by under 2 ulp, and log1p
        # adds its own 1 (seen: 2 ulp on 0.5% of N(0, 1) states, 3 on a few
        # per million).
        rng = np.random.default_rng(0)
        s = np.concatenate([rng.normal(0.0, 1.0, 20_000), rng.normal(0.0, 30.0, 20_000),
                            rng.normal(0.0, 800.0, 2000)])
        np.testing.assert_array_max_ulp(self.step(s), np.logaddexp(s, 0.0), maxulp=3)


class TestOrderingCheck:
    def est(self, name, value, sem):
        return MetricEstimate(
            name=name, value=value, sem=sem, n_used=10, upper_limit=None
        )

    def truth(self, value, sem=0.01):
        from qcdeval.oracle import MCEstimate

        return MCEstimate(value=value, sem=sem, n_reps=1000, cap_fraction=0.0)

    def test_verified_ordering(self):
        rep = truncation_ordering_check(
            self.est("km-arl", 140.0, 1.0),
            self.est("lb-arl", 90.0, 1.0),
            self.truth(150.0),
        )
        assert rep.status == "verified"
        assert rep.lb_bias <= rep.km_bias <= 0.0

    def test_violated_ordering(self):
        rep = truncation_ordering_check(
            self.est("km-arl", 90.0, 0.5),
            self.est("lb-arl", 140.0, 0.5),
            self.truth(150.0),
        )
        assert rep.status == "violated"

    def test_inconclusive_near_zero_bias(self):
        rep = truncation_ordering_check(
            self.est("km-arl", 150.0, 1.0),
            self.est("lb-arl", 149.0, 1.0),
            self.truth(150.0),
        )
        assert rep.status == "inconclusive"
