"""Product-limit survival estimation over right-censored samples.

This module is the mathematical engine behind the censoring-aware run-length
and detection-delay estimators: fitting the product-limit (Kaplan-Meier) step
curve, integrating it exactly up to a horizon (restricted mean), and the
matching restricted variance.

Tie convention: when an event and a censoring fall on the same time, the event
is treated as happening first, so the censored sample still counts in the risk
set at that time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurvivalSample",
    "StepSurvivalCurve",
    "RestrictedMean",
    "fit_km",
    "fit_km_arrays",
    "rmst",
    "max_last_observed",
    "rmst_km_batch",
]


@dataclass(frozen=True)
class SurvivalSample:
    """One right-censored observation: an event time or a censoring time."""

    time: float
    event: bool

    def __post_init__(self):
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"invalid sample: time={self.time!r}")


@dataclass(frozen=True)
class StepSurvivalCurve:
    """Right-continuous step estimate of a survival function.

    ``survival_values[j]`` is the value at and after ``drop_times[j]``;
    the curve is 1 before the first drop.
    """

    drop_times: np.ndarray
    survival_values: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray
    n_samples: int
    max_observed: float

    def survival_at(self, t: float) -> float:
        """Value of the step function at time ``t`` (held constant beyond
        the last observed time)."""
        idx = np.searchsorted(self.drop_times, t, side="right")
        return 1.0 if idx == 0 else float(self.survival_values[idx - 1])

    def to_csv(self, path) -> None:
        """Export as CSV with columns (t, S, n_at_risk, d), with a leading
        (0, 1, n, 0) row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "S", "n_at_risk", "d"])
            writer.writerow([0.0, 1.0, self.n_samples, 0])
            for t, s, n, d in zip(
                self.drop_times, self.survival_values, self.at_risk, self.deaths
            ):
                writer.writerow([float(t), float(s), int(n), int(d)])


@dataclass(frozen=True)
class RestrictedMean:
    """Area under a survival curve up to ``upper_limit`` plus the matching
    restricted variance."""

    value: float
    variance: float
    upper_limit: float
    n_samples: int
    extrapolated: bool = False
    variance_clamped: bool = False


def _product_limit(times: np.ndarray, events: np.ndarray):
    """Product-limit fit of every row of (rows, n) time/event arrays.

    Rows are sorted by time; samples with equal times form a tie group. At
    each sorted position ``at_risk`` counts the samples at or after its time,
    so a censoring tied with an event is still at risk (events first), and
    ``deaths`` counts the group's events up to it. The last position of a
    group with events is a drop, and ``surv`` is the survival just after it.
    Returns the sorted times and the (drop, at_risk, deaths, surv) arrays.
    """
    rows, n = times.shape
    order = np.argsort(times, axis=1)
    t = np.take_along_axis(times, order, axis=1)
    e = np.take_along_axis(events, order, axis=1)

    new_time = np.ones((rows, n), dtype=bool)
    new_time[:, 1:] = t[:, 1:] != t[:, :-1]
    start = np.maximum.accumulate(np.where(new_time, np.arange(n), 0), axis=1)
    at_risk = n - start
    seen = np.cumsum(e, axis=1)
    deaths = seen - np.take_along_axis(seen - e, start, axis=1)
    drop = deaths > 0
    drop[:, :-1] &= new_time[:, 1:]
    surv = np.cumprod(np.where(drop, 1.0 - deaths / at_risk, 1.0), axis=1)
    return t, drop, at_risk, deaths, surv


def _steps(drops: np.ndarray, surv: np.ndarray, upper_limit: float):
    """Intervals of step curves on [0, upper_limit].

    ``drops`` and ``surv`` are (rows, k) drop times below the limit and the
    survival from each on; the curve is 1 before the first drop. Returns the
    (rows, k + 1) left ends, right ends and curve values of the intervals.
    """
    rows = drops.shape[0]
    lefts = np.concatenate((np.zeros((rows, 1)), drops), axis=1)
    rights = np.concatenate((drops, np.full((rows, 1), upper_limit)), axis=1)
    s_vals = np.concatenate((np.ones((rows, 1)), surv), axis=1)
    return lefts, rights, s_vals


def fit_km_arrays(times: np.ndarray, events: np.ndarray) -> StepSurvivalCurve:
    """Fit the product-limit curve to right-censored samples given as
    equal-length time and event arrays.

    Drop times are the distinct event times; at drop time t_j the risk set
    counts every sample with time >= t_j (ties keep censored samples at risk,
    events first) and deaths count the events exactly at t_j.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("no samples")
    bad = ~(np.isfinite(times) & (times >= 0))
    if bad.any():
        raise ValueError(f"invalid sample: time={float(times[bad][0])!r}")
    t, drop, at_risk, deaths, surv = (
        a[0] for a in _product_limit(times[None], np.asarray(events, dtype=bool)[None])
    )
    return StepSurvivalCurve(
        drop_times=t[drop],
        survival_values=surv[drop],
        at_risk=at_risk[drop],
        deaths=deaths[drop],
        n_samples=times.size,
        max_observed=float(t[-1]),
    )


def fit_km(samples: list[SurvivalSample]) -> StepSurvivalCurve:
    """``fit_km_arrays`` over a list of samples."""
    return fit_km_arrays([s.time for s in samples], [s.event for s in samples])


def rmst(curve: StepSurvivalCurve, upper_limit: float) -> RestrictedMean:
    """Integrate the step curve exactly over [0, upper_limit].

    value    = sum of rectangle areas between consecutive drop times,
    variance = 2 * int_0^a t S(t) dt - value^2, clamped at 0 when floating
    rounding drives it slightly negative.
    """
    if upper_limit < 0 or not math.isfinite(upper_limit):
        raise ValueError(f"invalid upper_limit: {upper_limit!r}")
    a = float(upper_limit)

    k = int(np.sum(curve.drop_times < a))
    lefts, rights, s_vals = _steps(
        curve.drop_times[None, :k], curve.survival_values[None, :k], a
    )
    value = float(np.sum(s_vals * (rights - lefts)))
    second_moment = float(np.sum(s_vals * (rights**2 - lefts**2)))
    variance = second_moment - value**2
    clamped = variance < 0.0
    if clamped:
        variance = 0.0

    return RestrictedMean(
        value=value,
        variance=variance,
        upper_limit=a,
        n_samples=curve.n_samples,
        extrapolated=a > curve.max_observed,
        variance_clamped=clamped,
    )


def max_last_observed(samples: list[SurvivalSample]) -> float:
    """Maximum observed time across samples (each sample's time is already
    the minimum of its event and censoring times)."""
    if not samples:
        raise ValueError("no samples")
    return max(s.time for s in samples)


def rmst_km_batch(times: np.ndarray, events: np.ndarray, upper_limit: float) -> np.ndarray:
    """Restricted means of product-limit fits for many replications at once.

    ``times`` and ``events`` are (reps, n) arrays; each row is one dataset.
    Row i is the same fit and the same step integral as
    ``rmst(fit_km(row i), upper_limit).value``; used by the Monte-Carlo side
    of the bias-bound verification, where fitting rows one at a time would
    dominate the runtime.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    a = float(upper_limit)
    t, drop, _, _, surv = _product_limit(times, events)

    # Rows with the same number k of drops below a share one (rows, k + 1)
    # interval table, so each row sums exactly the terms rmst sums.
    keep = drop & (t < a)
    counts = keep.sum(axis=1)
    values = np.empty(times.shape[0])
    for k in np.unique(counts):
        sel = counts == k
        mask = keep[sel]
        shape = (mask.shape[0], k)
        lefts, rights, s_vals = _steps(
            t[sel][mask].reshape(shape), surv[sel][mask].reshape(shape), a
        )
        values[sel] = np.sum(s_vals * (rights - lefts), axis=1)
    return values
