"""Product-limit survival estimation over right-censored samples.

This module is the mathematical engine behind the censoring-aware run-length
and detection-delay estimators: fitting the product-limit (Kaplan-Meier) step
curve, integrating it exactly up to a horizon (restricted mean), and the
matching restricted variance. Every restricted mean in the package, of one
curve (``rmst``), of Monte-Carlo replications (``rmst_km_batch``) or of the
KM metrics' threshold columns (``_restricted_rows``), is the one integral
``_integrals``: the curves' rectangles back to back in flat arrays, summed
per curve by one ``np.add.reduceat``, so a curve's value does not depend on
which path or block it was fitted in. ``rmst_km_batch`` sums the value
alone. Every blocked fit, here, in the metrics' sample tables and in the
bias-bound cells of ``oracle``, takes blocks of about ``_BLOCK_SAMPLES``
samples (2**14), so its working memory does not grow with the row count.

Monte-Carlo replications draw from continuous laws and never tie, and a
block without ties skips the tie-group bookkeeping of the fit (see
``_product_limit``); its curves are the same, bit for bit.

Tie convention: when an event and a censoring fall on the same time, the event
is treated as happening first, so the censored sample still counts in the risk
set at that time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Samples (or table cells) per block, the one block size of the package:
# product-limit blocks in rmst_km_batch, the draw-and-fit blocks of
# oracle.bias_bounds and the sample-table blocks of the metrics. About 1 MB
# of working arrays (near 50 B per sample), whatever the number of rows: less
# than a curve's detector scan, so no blocked fit sets a run's peak memory.
_BLOCK_SAMPLES = 2**14

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


def _product_limit(times: np.ndarray, events: np.ndarray, pads=0):
    """Product-limit fit of every row of checked (rows, n) time/event arrays.

    Rows are sorted by time, events first among equal times; samples with
    equal times form a tie group. At each sorted position ``at_risk`` counts
    the samples at or after its time, so a censoring tied with an event is
    still at risk, and ``deaths`` counts the group's events up to it. The
    last position of a group with events is a drop, and ``surv`` is the
    survival just after it. Returns the sorted times and the (drop, at_risk,
    deaths, surv) arrays; ``deaths`` is None when no row holds a tie, as
    each drop then has one death.

    ``pads`` (a (rows, 1) array) says how many of a row's samples are +inf
    censorings that only pad it to width n: they sort last and are left out
    of ``at_risk``, so the row's fit is that of its other samples.

    When no row of the block holds two equal times, each sample is its own
    tie group: ``at_risk`` is n - pads less its position (one row, broadcast,
    when ``pads`` is 0), ``drop`` its event flag, and the
    factor 1 - e * (1 / at_risk) equals the tie-group path's 1 - d / at_risk
    bit for bit (1 / k is the same division, and times 0 or 1 is exact).
    Two pads tie, so a row there holds at most one; it sorts last with
    ``at_risk`` 0 and no event, and its inverse is taken of 1 instead.
    """
    rows, n = times.shape
    # One sort key per sample: the bits of a non-negative float64 order as
    # its value does (+ 0.0 turns -0.0 into 0.0, the sign bit is shifted
    # out), and the low bit, 0 for an event, puts events first in a tie.
    key = np.add(times, 0.0).view(np.uint64)
    key <<= 1
    key |= ~events
    key.sort(axis=1)
    e = (key & 1) == 0
    key >>= 1
    t = key.view(np.float64)

    tied = t[:, 1:] == t[:, :-1]  # a sample tied with the one before it
    if not tied.any():
        # One group per sample (see above); a lone pad: at_risk 0, no event.
        at_risk = (n - pads) - np.arange(n)  # one row, or one per row with pads
        surv = e * (1.0 / np.maximum(at_risk, 1))
        at_risk = np.broadcast_to(at_risk, (rows, n))
        drop, deaths = e, None
    else:
        new_time = np.ones((rows, n), dtype=bool)
        np.logical_not(tied, out=new_time[:, 1:])
        start = np.maximum.accumulate(np.where(new_time, np.arange(n), 0), axis=1)
        del new_time
        at_risk = (n - pads) - start
        # Flat gather: element j of row r is element r*n + j of the raveled array.
        start += (np.arange(rows) * n)[:, None]
        deaths = np.cumsum(e, axis=1)  # events up to each position, less
        deaths -= (deaths - e).ravel()[start]  # those before its tie group
        del start
        drop = deaths > 0
        drop[:, :-1] &= ~tied
        with np.errstate(invalid="ignore"):  # pads: 0 / 0, set to 0 below
            surv = deaths / at_risk
        surv[~drop] = 0.0
    np.subtract(1.0, surv, out=surv)
    np.cumprod(surv, axis=1, out=surv)
    return t, drop, at_risk, deaths, surv


def _integrals(t: np.ndarray, drop: np.ndarray, surv: np.ndarray, a: np.ndarray,
               second: bool = True):
    """Restricted mean and second moment over [0, a[r]] of the step curve of
    every row r of (rows, n) arrays: it drops to ``surv[r, j]`` at
    ``t[r, j]`` where ``drop[r, j]`` is set (only below a[r]), and is 1
    before. A row's k drops close k + 1 intervals, laid out row after row
    in flat arrays; each moment is one ``np.add.reduceat`` of the interval
    terms s * (right - left) and s * (right**2 - left**2), and a row's sum
    does not depend on where its terms lie. With ``second`` false, the
    second moment is skipped and returned as None."""
    rows, n = drop.shape
    at = np.flatnonzero(drop)
    closes = at // n
    counts = np.bincount(closes, minlength=rows) + 1  # intervals per row
    first = np.cumsum(counts) - counts
    closes += np.arange(at.size)  # the interval that drop j + 1 ends
    rights = np.repeat(a, counts)
    lefts = np.zeros_like(rights)
    s_vals = np.ones_like(rights)
    rights[closes] = lefts[closes + 1] = t.ravel()[at]
    s_vals[closes + 1] = surv.ravel()[at]
    del at, closes
    value = np.add.reduceat(s_vals * (rights - lefts), first)
    if not second:
        return value, None
    np.square(rights, out=rights)
    np.square(lefts, out=lefts)
    rights -= lefts
    rights *= s_vals
    return value, np.add.reduceat(rights, first)


def fit_km_arrays(times: np.ndarray, events: np.ndarray) -> StepSurvivalCurve:
    """Fit the product-limit curve to right-censored samples given as
    equal-length time and event arrays.

    Drop times are the distinct event times; at drop time t_j the risk set
    counts every sample with time >= t_j (ties keep censored samples at risk,
    events first) and deaths count the events exactly at t_j.
    """
    times, events = _checked_samples(times, events, ndim=1)
    t, drop, at_risk, deaths, surv = _product_limit(times[None], events[None])
    drop = drop[0]
    return StepSurvivalCurve(
        drop_times=t[0, drop],
        survival_values=surv[0, drop],
        at_risk=at_risk[0, drop],
        deaths=np.ones(np.count_nonzero(drop), np.intp) if deaths is None else deaths[0, drop],
        n_samples=times.size,
        max_observed=float(t[0, -1]),
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
    value, second_moment = (float(x[0]) for x in _integrals(
        drops, drops < a, curve.survival_values[None], np.full(1, a)))
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
    ``rmst(fit_km_arrays(row i), upper_limit).value``, bit for bit, but only
    the value is computed: no second moment, S(a) or largest time. Used by
    the Monte-Carlo side of the bias-bound verification, where fitting rows
    one at a time would dominate the runtime. Rows are fitted in blocks of
    about ``_BLOCK_SAMPLES`` samples, so the working memory does not grow
    with reps: beyond the inputs and the output, one block's.
    ``bias_bounds`` draws and passes one such block per call.
    """
    times, events = _checked_samples(times, events, ndim=2)
    a = _checked_limit(upper_limit)
    reps, n = times.shape
    step = max(1, _BLOCK_SAMPLES // n)
    values = np.empty(reps)
    for first in range(0, reps, step):
        rows = slice(first, first + step)
        t, drop, at_risk, deaths, surv = _product_limit(times[rows], events[rows])
        del at_risk, deaths
        drop &= t < a
        values[rows] = _integrals(t, drop, surv, np.full(t.shape[0], a), second=False)[0]
    return values


def _restricted_rows(times: np.ndarray, events: np.ndarray, pads: np.ndarray, upper_limit):
    """``rmst`` of the product-limit fit of every row of a checked (rows, m)
    block, whose last ``pads[r]`` samples are +inf censorings that pad row r
    to width m (see ``_product_limit``).

    Returns per row: the horizon a (the row's largest time, or
    ``upper_limit``), the restricted mean and second moment over [0, a],
    S(a), and the largest time. Each is the value, the ``variance``'s second
    moment, ``survival_at(a)`` and ``max_observed`` of ``rmst`` and
    ``fit_km_arrays`` on the row's own samples, bit for bit. ``pads`` may be
    0 for a block without padding.
    """
    t, drop, at_risk, deaths, surv = _product_limit(times, events, np.reshape(pads, (-1, 1)))
    del at_risk, deaths
    rows = np.arange(t.shape[0])
    t_max = t[rows, times.shape[1] - 1 - pads]
    a = t_max if upper_limit is None else np.full(rows.size, _checked_limit(upper_limit))
    # S(a) takes the drops at or before a: the running product at the row's
    # last time <= a, which closes its tie group (1 before the first time).
    below = np.count_nonzero(t <= a[:, None], axis=1)
    tail = np.where(below > 0, surv[rows, below - 1], 1.0)
    drop &= t < a[:, None]
    value, second = _integrals(t, drop, surv, a)
    return a, value, second, tail, t_max
