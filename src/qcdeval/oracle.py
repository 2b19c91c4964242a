"""Ground-truth oracles and numerical theory checks.

Three routes live here:

* Monte-Carlo true run length / detection delay on effectively infinite
  streams (``true_arl_mc`` / ``true_add_mc``), through one per-frame loop
  over the replications that have not alarmed, each with its own changepoint.
* Piecewise Gauss-Legendre quadrature of the finite-sample bias-bound
  integrals for restricted means under random censoring (``bias_bounds``),
  split at the censoring law's breakpoints, together with a
  Monte-Carlo bias measurement of the estimator under test
  (``rmst_km_batch``, the restricted-mean integral of the KM metrics) that
  must fall inside the bounds. A cell draws, censors and fits its
  replications one block at a time, so it holds one block's memory.
* An empirical check of the truncation-bias ordering between the
  censoring-aware and the selection-based estimators
  (``truncation_ordering_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._kernels import tie_levels
from .detectors import DetectorConfig, LikelihoodModel, detector_levels
from .metrics import MetricEstimate
from .simulate import _checked_seed, _is_int
from .survival import _BLOCK_SAMPLES, rmst_km_batch

__all__ = [
    "Dist",
    "BoundReport",
    "MCEstimate",
    "bias_bounds",
    "true_arl_mc",
    "true_add_mc",
    "truncation_ordering_check",
    "OrderingReport",
]


class Dist:
    """Distribution on the non-negative reals for the bias-bound machinery.

    Families: ("exp", rate), ("unif", lo, hi), ("empirical", times, probs).
    A parameter that is not finite or out of its range raises ValueError.
    """

    def __init__(self, kind, *params):
        self.kind = kind
        if kind == "exp":
            (self.rate,) = params
            if not (0 < self.rate < math.inf):
                raise ValueError(f"exp rate must be finite and > 0, got {self.rate!r}")
        elif kind == "unif":
            self.lo, self.hi = params
            if not (0 <= self.lo < self.hi < math.inf):
                raise ValueError(
                    f"unif needs finite 0 <= lo < hi, got {self.lo!r}, {self.hi!r}"
                )
        elif kind == "empirical":
            times, probs = params
            self.times = np.asarray(times, dtype=np.float64)
            self.probs = np.asarray(probs, dtype=np.float64)
            if not (
                self.times.ndim == 1
                and self.times.size
                and self.probs.shape == self.times.shape
                and np.all((self.times >= 0) & (self.times < math.inf))
                and np.all((self.probs >= 0) & (self.probs < math.inf))
                and abs(self.probs.sum() - 1.0) <= 1e-9
            ):
                raise ValueError(
                    "empirical table needs 1-D times and probs of one length, "
                    "finite times >= 0 and finite probs >= 0 summing to 1"
                )
        else:
            raise ValueError(f"unknown family: {kind}")

    @staticmethod
    def parse(text: str) -> "Dist":
        """Parse e.g. "exp:1" or "unif:0,2"."""
        kind, _, rest = text.partition(":")
        params = [float(p) for p in rest.split(",")] if rest else []
        return Dist(kind, *params)

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "exp":
            return -np.expm1(-self.rate * np.maximum(t, 0.0))
        if self.kind == "unif":
            return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return (self.times[None, ...] <= np.asarray(t)[..., None]).dot(self.probs)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "exp":
            return np.where(t >= 0, self.rate * np.exp(-self.rate * t), 0.0)
        if self.kind == "unif":
            inside = (t >= self.lo) & (t <= self.hi)
            return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        raise ValueError("empirical family has no density")

    def support(self) -> tuple[float, float]:
        if self.kind == "exp":
            return 0.0, math.inf
        if self.kind == "unif":
            return self.lo, self.hi
        return float(self.times.min()), float(self.times.max())

    def restricted_mean(self, a: float) -> float:
        """Exact integral of the survival function over [0, a]."""
        if self.kind == "exp":
            return float(-np.expm1(-self.rate * a) / self.rate)
        if self.kind == "unif":
            v = min(a, self.lo)
            if a > self.lo:
                u = min(a, self.hi)
                # integral of (hi - t)/(hi - lo) over [lo, u]
                v += (self.hi * (u - self.lo) - (u**2 - self.lo**2) / 2.0) / (
                    self.hi - self.lo
                )
            return float(v)
        return float(np.dot(self.probs, np.minimum(self.times, a)))

    def sample(self, rng: np.random.Generator, size):
        if self.kind == "exp":
            return rng.exponential(1.0 / self.rate, size=size)
        if self.kind == "unif":
            return rng.uniform(self.lo, self.hi, size=size)
        return rng.choice(self.times, size=size, p=self.probs)


@dataclass(frozen=True)
class BoundReport:
    n: int
    a: float
    lower: float
    upper: float
    mc_bias: float
    mc_ci_halfwidth: float
    contained: bool


@lru_cache(maxsize=8)  # bias_bounds asks for 64, 128, ..., 4096 nodes
def _gauss_legendre(q: int):
    """The q-node Gauss-Legendre rule on [-1, 1], built once per node count
    and shared read-only."""
    x, w = leggauss(q)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _bound_integrals(event: Dist, censor: Dist, n: int, a: float, q: int):
    """Quadrature of int_0^a {t, a} G(t) H(t)^(n-1) dF(t), with a q-node
    Gauss-Legendre rule on each piece between the censoring law's breakpoints
    inside the event support."""
    if event.kind == "empirical":
        mask = event.times <= a
        t = event.times[mask]
        w = event.probs[mask]
    else:
        lo, hi = event.support()
        lo, hi = max(0.0, lo), min(a, hi)
        if hi <= lo:
            return 0.0, 0.0
        # Where G is not smooth: the ends of its support, or its atoms.
        breaks = np.unique(censor.times if censor.kind == "empirical" else censor.support())
        edges = np.concatenate(([lo], breaks[(breaks > lo) & (breaks < hi)], [hi]))
        left, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
        x, gl_w = _gauss_legendre(q)
        t = (half * (x + 1.0) + left).ravel()
        w = (half * gl_w).ravel() * event.pdf(t)
    g = censor.cdf(t)
    h = 1.0 - (1.0 - event.cdf(t)) * (1.0 - g)
    core = g * h ** (n - 1) * w
    lower = -float(np.sum(t * core))
    upper = a * float(np.sum(core))
    return lower, upper


_QUAD_START, _QUAD_CAP = 64, 4096  # Gauss-Legendre nodes per piece


def _mc_rng(reps: int, seed: int, name: str) -> np.random.Generator:
    if not _is_int(reps):
        raise ValueError(f"{name} must be an integer, got {reps!r}")
    if reps < 2:  # a mean and its standard error need two replications
        raise ValueError(f"{name} must be >= 2, got {reps}")
    return np.random.Generator(np.random.Philox(key=np.uint64(_checked_seed(seed))))


def bias_bounds(
    event: Dist,
    censor: Dist,
    n: int,
    a: float,
    mc_reps: int = 10_000,
    seed: int = 0,
) -> BoundReport:
    """Finite-sample bias bounds for the restricted mean of a product-limit
    fit on n censored samples, verified against a Monte-Carlo bias estimate.

    The quadrature starts at 64 nodes per piece and doubles them until two
    consecutive values agree to 1e-8 relative, failing before a rule would
    pass 4096 nodes; the Monte-Carlo bias must lie inside the bounds inflated
    by its own 3-sigma confidence halfwidth.

    The replications run in row blocks of ``max(1, survival._BLOCK_SAMPLES
    // n)`` rows. Each block draws its event times, then its censoring
    times, censors the events in place and fits them with
    ``rmst_km_batch``, so a cell holds one block's draws, flags and work
    arrays, whatever ``mc_reps``; only the restricted means, 8 B per
    replication, span every block. The draws, and so the Monte-Carlo bias,
    depend on the block size; the quadrature bounds do not.
    """
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"a must be finite and >= 0, got {a}")
    rng = _mc_rng(mc_reps, seed, "mc_reps")
    q = _QUAD_START
    lower, upper = _bound_integrals(event, censor, n, a, q)
    while event.kind != "empirical":
        if 2 * q > _QUAD_CAP:
            raise RuntimeError(f"bias-bound quadrature did not converge by {q} nodes")
        q *= 2
        last = lower, upper
        lower, upper = _bound_integrals(event, censor, n, a, q)
        scale = max(abs(lower) + abs(upper), 1e-300)
        if abs(lower - last[0]) + abs(upper - last[1]) < 1e-8 * scale:
            break

    values = np.empty(mc_reps)
    step = max(1, _BLOCK_SAMPLES // n)
    for first in range(0, mc_reps, step):
        shape = (min(step, mc_reps - first), n)
        times, ce = event.sample(rng, shape), censor.sample(rng, shape)
        observed = times < ce
        np.minimum(times, ce, out=times)  # censored in place
        del ce  # freed before the fit's work arrays are made
        values[first : first + step] = rmst_km_batch(times, observed, a)
    mc_bias = float(np.mean(values - event.restricted_mean(a)))
    ci = 3.0 * float(values.std(ddof=1)) / math.sqrt(mc_reps)
    contained = (lower - ci) <= mc_bias <= (upper + ci)
    return BoundReport(
        n=n,
        a=a,
        lower=lower,
        upper=upper,
        mc_bias=mc_bias,
        mc_ci_halfwidth=ci,
        contained=contained,
    )


# The delay-side bounds are the same computation with the delay distribution
# as the event law and the post-change horizon as the censoring law; call
# bias_bounds with those arguments directly.


@dataclass(frozen=True)
class MCEstimate:
    value: float
    sem: float
    n_reps: int
    cap_fraction: float
    retention_fraction: float = 1.0


def _gsr_step(state: np.ndarray, llr: np.ndarray) -> None:
    """log R(t) = log(R(t-1) + 1) + llr(t), in place on ``state``.

    max(s, 0) + log1p(exp(-|s|)) is the formula ``np.logaddexp(s, 0.0)``
    evaluates, with exact 0 at s = -inf, at a fifth of its cost: logaddexp
    calls scalar libm functions, these ufuncs run vectorised. Their exp and
    log1p are each within 1 ulp of libm's, so the two agree to 3 ulp.
    """
    tail = np.abs(state)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(state, 0.0, out=state)
    state += tail
    state += llr


def _cusum_step(state: np.ndarray, llr: np.ndarray) -> None:
    """W(t) = max(W(t-1) + llr(t), 0), in place on ``state``."""
    state += llr
    np.maximum(state, 0.0, out=state)


def _detector_state(model: LikelihoodModel, config: DetectorConfig, n: int):
    """Initial statistics, in-place one-frame step and alarm level of
    gsr/cusum, whose likelihood model must be ``model``."""
    if config.kind not in ("gsr", "cusum"):
        raise ValueError(f"monte-carlo oracle supports gsr/cusum only, got {config.kind}")
    if model != config.model:
        raise ValueError(f"oracle model {model} is not the detector's model {config.model}")
    # The scans' level of the threshold, with the same exact-tie slack.
    thr = float(tie_levels(detector_levels(config, config.threshold))[0])
    if config.kind == "gsr":
        init = math.log(config.omega) if config.omega > 0 else -math.inf
        return np.full(n, init), _gsr_step, thr
    return np.zeros(n), _cusum_step, thr


def _llr_draw(model: LikelihoodModel, rng: np.random.Generator):
    """A function of a boolean array ``post`` drawing one frame per element,
    post-change where ``post`` is set and pre-change elsewhere, and returning
    the frames' log-likelihood ratios.

    The Gaussian llr c*x - k (``model.llr_coefficients``) of the frame
    x = sd*z + mu is built straight from the standard normal draw z as
    (c*sd)*z + (c*mu - k). Poisson counts go through ``model.llr``.
    """
    if model.kind == "gaussian":
        c, k = model.llr_coefficients
        scale = c * math.sqrt(model.var)
        shift_pre, shift_post = c * model.mu0 - k, c * model.mu1 - k

        def draw(post):
            z = rng.standard_normal(post.size)
            z *= scale
            z += np.where(post, shift_post, shift_pre)
            return z

        return draw

    def draw(post):
        return model.llr(rng.poisson(np.where(post, model.lam1, model.lam0)))

    return draw


def _first_alarms(
    model: LikelihoodModel,
    detector: DetectorConfig,
    nus: np.ndarray,
    horizon_cap: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-alarm frame of each replication, -1 when none by horizon_cap.

    Replication i runs the detector from frame 0 on pre-change frames before
    its changepoint ``nus[i]`` and post-change frames from it on (inf: a
    pre-change-only stream). Frame t is drawn, in replication order, only
    for the replications that have not alarmed before it: every draw is read.
    """
    tau = np.full(nus.size, -1, dtype=np.int64)
    active = np.arange(nus.size)
    state, step, thr = _detector_state(model, detector, nus.size)
    draw = _llr_draw(model, rng)
    for t in range(horizon_cap):
        step(state, draw(nus <= t))
        hit = state >= thr
        if hit.any():
            tau[active[hit]] = t
            keep = ~hit
            active, state, nus = active[keep], state[keep], nus[keep]
            if not active.size:
                break
    return tau


def _estimate(model, detector, nus, origin, horizon_cap, rng) -> MCEstimate:
    """Mean of tau - origin over the replications with tau >= origin.

    Replications that reach horizon_cap without an alarm count as retained;
    the estimate errors out when 0.1% or more of the retained ones did, to
    keep the oracle itself free of truncation bias.
    """
    tau = _first_alarms(model, detector, nus, horizon_cap, rng)
    kept = tau >= origin
    n_capped = int(np.sum(tau < 0))
    n_retained = int(kept.sum()) + n_capped
    cap_fraction = n_capped / max(n_retained, 1)
    if cap_fraction >= 1e-3:
        raise RuntimeError(
            f"increase horizon_cap: {n_capped}/{n_retained} retained replications hit the cap"
        )
    values = (tau - origin)[kept].astype(np.float64)
    if values.size < 2:
        raise RuntimeError("fewer than two replications survived the false-alarm filter")
    return MCEstimate(
        value=float(values.mean()),
        sem=float(values.std(ddof=1) / math.sqrt(values.size)),
        n_reps=nus.size,
        cap_fraction=cap_fraction,
        retention_fraction=n_retained / nus.size,
    )


def true_arl_mc(
    model: LikelihoodModel,
    detector: DetectorConfig,
    n_reps: int,
    horizon_cap: int,
    seed: int = 0,
    chunk: int = 256,
) -> MCEstimate:
    """Mean first-alarm time on pre-change-only streams. ``chunk`` is
    accepted and has no effect."""
    rng = _mc_rng(n_reps, seed, "n_reps")
    return _estimate(model, detector, np.full(n_reps, math.inf), 0, horizon_cap, rng)


def true_add_mc(
    model: LikelihoodModel,
    detector: DetectorConfig,
    changepoint_law,
    n_reps: int,
    horizon_cap: int,
    seed: int = 0,
) -> MCEstimate:
    """Mean detection delay over streams with a random changepoint.

    Each replication runs the detector from frame 0 with pre-change frames
    before its changepoint and post-change after; replications alarming
    before the change (false alarms) are discarded.
    """
    rng = _mc_rng(n_reps, seed, "n_reps")
    law = tuple(changepoint_law)
    if law[0] == "geometric":
        nus = rng.geometric(law[1], size=n_reps).astype(np.float64) - 1.0
    elif law[0] == "fixed":
        nu = float(law[1])
        if not (math.isfinite(nu) and nu >= 0 and nu.is_integer()):
            raise ValueError(f"fixed changepoint law needs an integer nu >= 0, got {law[1]!r}")
        nus = np.full(n_reps, nu)
    else:
        raise ValueError(f"unsupported changepoint law for the oracle: {law[0]}")
    return _estimate(model, detector, nus, nus, horizon_cap, rng)


@dataclass(frozen=True)
class OrderingReport:
    """Empirical truncation-bias ordering: selection-based bias below
    censoring-aware bias below zero, each judged at 3 combined SEMs."""

    km_value: float
    lb_value: float
    true_value: float
    km_bias: float
    lb_bias: float
    status: str  # "verified" | "inconclusive" | "violated"


def _compare(lhs: float, rhs: float, tol: float) -> str:
    if lhs <= rhs - tol:
        return "verified"
    if lhs <= rhs + tol:
        return "inconclusive"
    return "violated"


def truncation_ordering_check(
    km: MetricEstimate, lb: MetricEstimate, truth: MCEstimate
) -> OrderingReport:
    if km.value is None or lb.value is None:
        raise ValueError("both estimates must be defined for the ordering check")
    km_bias = km.value - truth.value
    lb_bias = lb.value - truth.value
    tol_pair = 3.0 * math.sqrt(km.sem**2 + lb.sem**2)
    tol_zero = 3.0 * math.sqrt(km.sem**2 + truth.sem**2)
    first = _compare(lb_bias, km_bias, tol_pair)
    second = _compare(km_bias, 0.0, tol_zero)
    if "violated" in (first, second):
        status = "violated"
    elif "inconclusive" in (first, second):
        status = "inconclusive"
    else:
        status = "verified"
    return OrderingReport(
        km_value=km.value,
        lb_value=lb.value,
        true_value=truth.value,
        km_bias=km_bias,
        lb_bias=lb_bias,
        status=status,
    )
