"""Independent reference computations for the benchmark's output checks.

Nothing here calls into qcdeval: alarm times come from the plain per-frame
recursions, and the five metrics from a separate product-limit fit,
restricted mean and selection means. The benchmark compares every number
the CLI writes against these.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf
# Same exact-tie slack as the GSR detector: alarm at log R >= log h - 1e-12.
GSR_TIE_SLACK = 1e-12
# Window gains this close to the threshold are recomputed by the direct
# two-pass variance instead of the prefix-sum form.
WINDOW_NEAR_TIE = 1e-9


def gaussian_llr(x, mu0: float, mu1: float, var: float) -> np.ndarray:
    """Per-frame log-likelihood ratio of N(mu1, var) against N(mu0, var)."""
    x = np.asarray(x, dtype=np.float64)
    return (mu1 - mu0) / var * x - (mu1 * mu1 - mu0 * mu0) / (2.0 * var)


def gsr_alarm_times(values, model, thresholds):
    """First alarm of GSR (omega = 0) on every sequence at every threshold.

    log R(t) = logaddexp(log R(t-1), 0) + llr(t) with log R(-1) = -inf,
    advanced for all sequences at once. Returns (taus, min_gap): taus has
    shape (len(thresholds), len(values)) with inf for no alarm; min_gap is
    the smallest |log R - log h| over all frames and thresholds, which says
    how far the grid sits from an ambiguous tie.
    """
    lengths = np.array([len(v) for v in values])
    n, horizon = len(values), int(lengths.max())
    llr = np.zeros((n, horizon))
    for i, v in enumerate(values):
        llr[i, : len(v)] = gaussian_llr(v, *model)
    log_r = np.full(n, -np.inf)
    run_max = np.empty((n, horizon))
    best = np.full(n, -np.inf)
    log_h = np.log(np.asarray(thresholds, dtype=np.float64))
    min_gap = np.inf
    for t in range(horizon):
        log_r = np.logaddexp(log_r, 0.0) + llr[:, t]
        live = log_r[t < lengths]
        min_gap = min(min_gap, float(np.abs(live[:, None] - log_h[None, :]).min()))
        best = np.maximum(best, np.where(t < lengths, log_r, -np.inf))
        run_max[:, t] = best
    taus = np.empty((log_h.size, n))
    for k, cut in enumerate(log_h - GSR_TIE_SLACK):
        first = (run_max < cut).sum(axis=1)  # run_max is non-decreasing
        taus[k] = np.where(first < lengths, first, INF)
    return taus, min_gap


def _window_var(s1, s2, starts, width):
    mean = (s1[starts + width] - s1[starts]) / width
    return (s2[starts + width] - s2[starts]) / width - mean * mean


def window_normal_alarm(x, width: int, burn_in: int, threshold: float) -> float:
    """First alarm of the Gaussian-cost two-sample window scan.

    At right edge t the gain is cost(x[t-2w+1..t]) - cost(first half) -
    cost(second half) with cost = 0.5 * len * log(var + 1e-12); alarms start
    at t = burn_in + 2w - 1. Window variances come from prefix sums of the
    centred series; gains within WINDOW_NEAR_TIE of the threshold are
    recomputed window by window.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    first_t = burn_in + 2 * width - 1
    if n <= first_t:
        return INF
    xc = x - x.mean()
    s1 = np.concatenate(([0.0], np.cumsum(xc)))
    s2 = np.concatenate(([0.0], np.cumsum(xc * xc)))
    edges = np.arange(first_t, n)
    starts = edges - 2 * width + 1

    def cost(var, m):
        return 0.5 * m * np.log(var + 1e-12)

    gain = (
        cost(_window_var(s1, s2, starts, 2 * width), 2 * width)
        - cost(_window_var(s1, s2, starts, width), width)
        - cost(_window_var(s1, s2, starts + width, width), width)
    )
    for j in np.nonzero(np.abs(gain - threshold) < WINDOW_NEAR_TIE)[0]:
        s = starts[j]
        gain[j] = (
            cost(np.var(x[s : s + 2 * width]), 2 * width)
            - cost(np.var(x[s : s + width]), width)
            - cost(np.var(x[s + width : s + 2 * width]), width)
        )
    hits = np.nonzero(gain >= threshold)[0]
    return float(edges[hits[0]]) if hits.size else INF


def _km_restricted_mean(times, events):
    """(value, sem, n_used, horizon, extrapolation_flag) of the product-limit
    restricted mean up to the largest observed time. Events precede
    censorings at equal times."""
    n = times.size
    horizon = float(times.max())
    drops, deaths = np.unique(times[events], return_counts=True)
    at_risk = n - np.searchsorted(np.sort(times), drops, side="left")
    surv = np.cumprod(1.0 - deaths / at_risk)
    inside = drops < horizon
    knots = np.concatenate(([0.0], drops[inside], [horizon]))
    level = np.concatenate(([1.0], surv[inside]))
    value = float(np.sum(level * np.diff(knots)))
    second = float(np.sum(level * np.diff(knots * knots)))
    variance = max(second - value * value, 0.0)
    surv_at_horizon = float(surv[-1]) if drops.size else 1.0
    flag = surv_at_horizon > 0.0 and abs(value - horizon) <= 1e-12 * max(horizon, 1.0)
    return value, math.sqrt(variance / n), n, horizon, flag


def _selection_mean(values):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return None
    sem = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), sem, int(values.size), None, False


def metric_reference(nu, length, tau) -> dict:
    """The five metrics from per-sequence changepoints, lengths and alarm
    times (inf = none). Each entry is (value, sem, n_used, upper_limit,
    extrapolation_flag), or None when the metric is undefined."""
    nu = np.asarray(nu, dtype=np.float64)
    length = np.asarray(length, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    has_change = np.isfinite(nu)
    alarmed = np.isfinite(tau)
    delay = np.where(has_change & alarmed, tau - np.where(has_change, nu, 0.0), INF)

    censor = np.minimum(nu, length)
    arl_event = tau < censor
    arl_time = np.where(arl_event, tau, censor)

    eligible = has_change & ~(alarmed & (tau < nu))
    add_event = alarmed[eligible]
    add_time = np.where(alarmed, delay, length - nu)[eligible]

    return {
        "km-arl": _km_restricted_mean(arl_time, arl_event),
        "km-add": _km_restricted_mean(add_time, add_event) if add_time.size else None,
        "lb-arl": _selection_mean(tau[~has_change & alarmed]),
        "lb-add": _selection_mean(delay[has_change & alarmed & (tau >= nu)]),
        "naive-arl": _selection_mean(tau[alarmed & (tau < nu)]),
    }
