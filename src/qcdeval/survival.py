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

# Samples per product-limit block in rmst_km_batch, and per censoring block
# in oracle.bias_bounds: about 3 MB of working arrays (near 50 B per sample),
# whatever the number of replications.
_BLOCK_SAMPLES = 2**16

__all__ = [
    "SurvivalSample",
    "StepSurvivalCurve",
    "RestrictedMean",
    "fit_km",
    "fit_km_arrays",
    "rmst",
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
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


def _checked_samples(times, events, ndim: int):
    """``times`` as float64 and ``events`` as bool, after checking that both
    are ``ndim``-dimensional with one shape and every time is finite and >= 0
    (the product-limit sort key below needs that)."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.ndim != ndim or events.shape != times.shape:
        raise ValueError(
            f"times and events must be {ndim}-D arrays of one shape, "
            f"got {times.shape} and {events.shape}"
        )
    if times.size == 0:
        raise ValueError("no samples")
    # Two reductions instead of a mask: a NaN fails both comparisons.
    if not (times.min() >= 0 and math.isfinite(times.max())):
        bad = ~(np.isfinite(times) & (times >= 0))
        raise ValueError(f"invalid sample: time={float(times[bad][0])!r}")
    return times, events


def _checked_limit(upper_limit) -> float:
    a = float(upper_limit)
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"invalid upper_limit: {upper_limit!r}")
    return a


def _product_limit(times: np.ndarray, events: np.ndarray):
    """Product-limit fit of every row of checked (rows, n) time/event arrays.

    Rows are sorted by time, events first among equal times; samples with
    equal times form a tie group. At each sorted position ``at_risk`` counts
    the samples at or after its time, so a censoring tied with an event is
    still at risk, and ``deaths`` counts the group's events up to it. The
    last position of a group with events is a drop, and ``surv`` is the
    survival just after it. Returns the sorted times and the (drop, at_risk,
    deaths, surv) arrays.
    """
    rows, n = times.shape
    # One sort key per sample: the bits of a non-negative float64 order as
    # its value does (+ 0.0 turns -0.0 into 0.0, the sign bit is shifted
    # out), and the low bit, 0 for an event, puts events first in a tie.
    key = np.add(times, 0.0).view(np.uint64)
    key <<= 1
    key |= ~events
    key.sort(axis=1)
    t = (key >> 1).view(np.float64)
    e = (key & 1) == 0
    del key

    new_time = np.ones((rows, n), dtype=bool)
    new_time[:, 1:] = t[:, 1:] != t[:, :-1]
    start = np.maximum.accumulate(np.where(new_time, np.arange(n), 0), axis=1)
    at_risk = n - start
    # Flat gather: element j of row r is element r*n + j of the raveled array.
    start += (np.arange(rows) * n)[:, None]
    deaths = np.cumsum(e, axis=1)  # events up to each position, less
    deaths -= (deaths - e).ravel()[start]  # those before its tie group
    del start
    drop = deaths > 0
    drop[:, :-1] &= new_time[:, 1:]
    del new_time
    surv = deaths / at_risk
    np.subtract(1.0, surv, out=surv)
    surv[~drop] = 1.0
    np.cumprod(surv, axis=1, out=surv)
    return t, drop, at_risk, deaths, surv


def _intervals(t: np.ndarray, drop: np.ndarray, surv: np.ndarray, a: float):
    """Left ends, right ends and values of the intervals of step curves on
    [0, a], row after row in flat arrays. Row r of the (rows, n) inputs
    drops to ``surv[r, j]`` at ``t[r, j]`` where ``drop[r, j]`` is set (only
    below a), and is 1 before; its k drops close the interval at flat
    position j + r and open the one at j + r + 1, k + 1 in all."""
    at = np.flatnonzero(drop)
    closes = at // drop.shape[1]
    closes += np.arange(at.size)
    rights = np.full(drop.shape[0] + at.size, a)
    lefts = np.zeros_like(rights)
    s_vals = np.ones_like(rights)
    rights[closes] = lefts[closes + 1] = t.ravel()[at]
    s_vals[closes + 1] = surv.ravel()[at]
    return lefts, rights, s_vals


def fit_km_arrays(times: np.ndarray, events: np.ndarray) -> StepSurvivalCurve:
    """Fit the product-limit curve to right-censored samples given as
    equal-length time and event arrays.

    Drop times are the distinct event times; at drop time t_j the risk set
    counts every sample with time >= t_j (ties keep censored samples at risk,
    events first) and deaths count the events exactly at t_j.
    """
    times, events = _checked_samples(times, events, ndim=1)
    t, drop, at_risk, deaths, surv = (a[0] for a in _product_limit(times[None], events[None]))
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
    a = _checked_limit(upper_limit)

    drops = curve.drop_times[None]
    lefts, rights, s_vals = _intervals(drops, drops < a, curve.survival_values[None], a)
    value = float(np.sum(s_vals * (rights - lefts)))
    second_moment = float(np.sum(s_vals * (rights**2 - lefts**2)))
    variance = second_moment - value**2
    if variance < 0.0:
        variance = 0.0

    return RestrictedMean(
        value=value,
        variance=variance,
        upper_limit=a,
        n_samples=curve.n_samples,
        extrapolated=a > curve.max_observed,
    )


def rmst_km_batch(times: np.ndarray, events: np.ndarray, upper_limit: float) -> np.ndarray:
    """Restricted means of product-limit fits for many replications at once.

    ``times`` and ``events`` are (reps, n) arrays; each row is one dataset.
    Row i is the same fit and the same step integral as
    ``rmst(fit_km_arrays(row i), upper_limit).value``; used by the Monte-Carlo
    side of the bias-bound verification, where fitting rows one at a time
    would dominate the runtime. Rows are fitted in blocks of about
    ``_BLOCK_SAMPLES`` samples, so the working memory does not grow with reps:
    beyond the inputs and the output, one block's. ``bias_bounds`` passes one
    such block per call, so a bias-bound cell holds 8 B per sample for its
    event draw plus one block.
    """
    times, events = _checked_samples(times, events, ndim=2)
    a = _checked_limit(upper_limit)
    reps, n = times.shape
    step = max(1, _BLOCK_SAMPLES // n)
    values = np.empty(reps)
    for first in range(0, reps, step):
        rows = slice(first, first + step)
        values[rows] = _rmst_rows(times[rows], events[rows], a)
    return values


def _rmst_rows(times: np.ndarray, events: np.ndarray, a: float) -> np.ndarray:
    """``rmst_km_batch`` on one block of rows."""
    t, drop, at_risk, deaths, surv = _product_limit(times, events)
    del at_risk, deaths
    drop &= t < a
    counts = drop.sum(axis=1)

    # The k + 1 terms s * (right - left) of a row with k drops below a are
    # the terms rmst sums.
    lefts, rights, s_vals = _intervals(t, drop, surv, a)
    del t, drop, surv
    terms = s_vals * (rights - lefts)
    del lefts, rights, s_vals
    first = np.cumsum(counts + 1) - (counts + 1)

    # Rows with the same k sum one (rows, k + 1) gather of their terms, so
    # each row's sum is rmst's, bit for bit.
    values = np.empty(times.shape[0])
    by_count = np.argsort(counts, kind="stable")
    ks, group_first, group_rows = np.unique(
        counts[by_count], return_index=True, return_counts=True
    )
    for k, r, m in zip(ks.tolist(), group_first.tolist(), group_rows.tolist()):
        group = by_count[r : r + m]
        values[group] = np.sum(terms[first[group, None] + np.arange(k + 1)], axis=1)
    return values
