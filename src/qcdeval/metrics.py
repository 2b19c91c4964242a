"""Run-length and detection-delay estimators over labeled sequence datasets.

Computes the censoring-aware estimators (KM-ARL, KM-ADD) next to the
conventional selection-based baselines (LB-ARL, LB-ADD, Naive ARL). All five
read the same per-sequence columns: length T, changepoint ``nu`` and first
alarm ``tau``. ``estimate_columns`` computes one of them at every column of
a (sequences x thresholds) table of first alarms, from masks built once for
the whole table: the KM metrics fit the product-limit curves of all columns
as row blocks of about ``_KM_BLOCK_SAMPLES`` ``arl_columns`` or
``add_columns`` samples (one fit per block, ``survival._restricted_rows``,
whose restricted means are those of ``rmst`` and ``rmst_km_batch`` by one
integral), the baselines average each column's selection. ``estimate`` is
its one-column call. The object-level functions (``compute_metric``,
``km_arl``, ..., ``arl_samples``) match outcomes to sequences by id in one
place, ``_columns``.

Conventions: the changepoint ``nu`` and the detection point ``tau`` are frame
indices, with ``math.inf`` meaning "no change" / "no alarm". A sequence
contributes to the ARL samples as an observed event only when its alarm
strictly precedes min(nu, T); a tie counts as censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .survival import SurvivalSample, _checked_samples, _restricted_rows
# Unused here, kept because qcdbench's traced runs wrap metrics.fit_km and
# metrics.rmst.
from .survival import fit_km, rmst  # noqa: F401

__all__ = [
    "INF",
    "SequenceMeta",
    "DetectionOutcome",
    "MetricEstimate",
    "METRIC_NAMES",
    "arl_columns",
    "add_columns",
    "arl_samples",
    "add_samples",
    "km_arl",
    "km_add",
    "lb_arl",
    "lb_add",
    "naive_arl",
    "compute_metric",
    "estimate",
    "estimate_columns",
]

INF = math.inf

METRIC_NAMES = ("km-arl", "km-add", "lb-arl", "lb-add", "naive-arl")

# Samples per block of KM rows: about 1 MB of working arrays, less than the
# detector scan's own peak at the 1k-sequence benchmark size, so the metrics
# never set a curve's peak memory.
_KM_BLOCK_SAMPLES = 2**14


@dataclass(frozen=True)
class SequenceMeta:
    """Labels of one observed sequence: its length and changepoint."""

    id: str
    length_T: int
    changepoint_nu: float  # non-negative int, or math.inf for "no change"

    def __post_init__(self):
        if self.length_T < 1:
            raise ValueError(f"length_T must be >= 1, got {self.length_T}")
        nu = self.changepoint_nu
        if nu != INF and (nu < 0 or nu != int(nu) or nu >= self.length_T):
            raise ValueError(
                f"{self.id}: changepoint {nu!r} does not index a frame of "
                f"length {self.length_T}"
            )


@dataclass(frozen=True)
class DetectionOutcome:
    """First alarm frame of a detector on one sequence (inf = no alarm)."""

    id: str
    tau: float


@dataclass(frozen=True)
class MetricEstimate:
    name: str
    value: float | None
    sem: float | None
    n_used: int
    upper_limit: float | None
    extrapolation_flag: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "sem": self.sem,
            "n_used": self.n_used,
            "upper_limit": self.upper_limit,
            "extrapolation_flag": self.extrapolation_flag,
        }


def _undefined(name: str) -> MetricEstimate:
    return MetricEstimate(name=name, value=None, sem=None, n_used=0, upper_limit=None)


def _columns(metas, outcomes):
    """Match outcomes to metas by id, validating uniqueness and alarms.

    Returns float (lengths, nu, tau) arrays in outcome order; this is the one
    place where ids are matched.
    """
    meta_by_id = {}
    for m in metas:
        if m.id in meta_by_id:
            raise ValueError(f"duplicate sequence id: {m.id}")
        meta_by_id[m.id] = m
    seen = set()
    rows = []
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
        rows.append((m.length_T, m.changepoint_nu, o.tau))
    if len(rows) != len(meta_by_id):
        missing = set(meta_by_id) - seen
        raise ValueError(f"missing outcomes for ids: {sorted(missing)[:5]}")
    lengths, nu, tau = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    return lengths, nu, tau


def arl_columns(lengths, nu, tau):
    """Run-length samples: an event at tau when tau < min(nu, T), otherwise
    censored at min(nu, T)."""
    censor = np.minimum(nu, lengths)
    events = tau < censor
    return np.where(events, tau, censor), events


def add_columns(lengths, nu, tau):
    """Delay samples over sequences with a change and no alarm before it: an
    event at tau - nu for a finite alarm, otherwise censored at T - nu."""
    keep = (nu != INF) & ~(tau < nu)
    tau, nu = tau[keep], nu[keep]
    events = tau != INF
    return np.where(events, tau - nu, lengths[keep] - nu), events


def _km_columns(name, lengths, nu, taus, upper_limit):
    """KM-ARL or KM-ADD at every column of ``taus``: the columns' samples
    are fitted as row blocks of about ``_KM_BLOCK_SAMPLES`` samples (one row
    per block when a column holds more), KM-ADD rows padded to the block's
    widest with +inf censorings."""
    n, k = taus.shape
    if name == "km-arl":
        counts = np.full(k, n)
    else:
        counts = np.count_nonzero((nu != INF)[:, None] & ~(taus < nu[:, None]), axis=0)
    out = [_undefined(name)] * k
    step = max(1, _KM_BLOCK_SAMPLES // max(int(counts.max(initial=0)), 1))
    for first in range(0, k, step):
        cols = np.arange(first, min(first + step, k))
        cols = cols[counts[cols] > 0]
        if not cols.size:
            continue
        tau = np.ascontiguousarray(taus[:, cols].T)
        if name == "km-arl":
            times, events = arl_columns(lengths, nu, tau)
            _checked_samples(times, events, ndim=2)
            pads = np.zeros(cols.size, dtype=np.int64)
        else:
            # The rows' delays back to back, then one row per column.
            delay, event = add_columns(*np.broadcast_arrays(lengths, nu, tau))
            _checked_samples(delay, event, ndim=1)
            width = int(counts[cols].max())
            fill = np.arange(width) < counts[cols, None]
            times = np.full(fill.shape, INF)
            times[fill] = delay
            events = np.zeros(fill.shape, dtype=bool)
            events[fill] = event
            pads = width - counts[cols]
        rows = _restricted_rows(times, events, pads, upper_limit)
        for c, *row in zip(cols.tolist(), *(x.tolist() for x in rows)):
            out[c] = _km(name, int(counts[c]), *row)
    return out


def _km(name, n, a, value, second_moment, tail, t_max):
    variance = second_moment - value**2
    if variance < 0.0:
        variance = 0.0
    # Extrapolation: the horizon exceeds the data, or the curve never drops
    # below 1 so the whole estimate is the horizon itself.
    flag = a > t_max or (tail > 0.0 and abs(value - a) <= 1e-12 * max(a, 1.0))
    return MetricEstimate(
        name=name,
        value=value,
        sem=math.sqrt(variance / n),
        n_used=n,
        upper_limit=a,
        extrapolation_flag=flag,
    )


def _mean(name, arr):
    if arr.size == 0:
        return _undefined(name)
    sem = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricEstimate(
        name=name,
        value=float(arr.mean()),
        sem=sem,
        n_used=arr.size,
        upper_limit=None,
    )


def estimate_columns(name: str, lengths, nu, taus, upper_limit=None) -> list[MetricEstimate]:
    """One metric at every column of a first-alarm table: ``lengths`` and
    changepoints ``nu`` are float arrays with one entry per sequence, and
    ``taus`` a (sequences x K) float table whose column j holds every
    sequence's first alarm at threshold j, inf meaning no change or no alarm.
    Returns the K estimates in column order.

    ``upper_limit`` is the horizon of ``km-arl`` and ``km-add`` (default: each
    column's largest observed time); the selection means take none.
    """
    lengths, nu, taus = (np.asarray(a, dtype=np.float64) for a in (lengths, nu, taus))
    if name in ("km-arl", "km-add"):
        return _km_columns(name, lengths, nu, taus, upper_limit)
    if name not in METRIC_NAMES:
        raise ValueError(f"unknown metric: {name}")
    if upper_limit is not None:
        raise ValueError(f"{name} takes no upper_limit")
    nu_col = nu[:, None]
    if name == "lb-arl":  # no-change sequences that did alarm
        select = (nu_col == INF) & (taus != INF)
    elif name == "lb-add":  # with-change sequences detected at or after the change
        select = (nu_col != INF) & (taus != INF) & (taus >= nu_col)
        return [_mean(name, tau[hit] - nu[hit]) for tau, hit in zip(taus.T, select.T)]
    else:  # naive-arl: every alarm before its changepoint, false alarms included
        select = taus < nu_col
    return [_mean(name, tau[hit]) for tau, hit in zip(taus.T, select.T)]


def estimate(name: str, lengths, nu, tau, upper_limit=None) -> MetricEstimate:
    """One metric from per-sequence columns: length T, changepoint nu and
    first alarm tau, float arrays of equal length with inf meaning no change
    or no alarm; the one-column call of ``estimate_columns``.

    ``upper_limit`` is the horizon of ``km-arl`` and ``km-add`` (default: the
    largest observed time); the selection means take none.
    """
    tau = np.asarray(tau, dtype=np.float64)[:, None]
    return estimate_columns(name, lengths, nu, tau, upper_limit)[0]


def _samples(times, events) -> list[SurvivalSample]:
    return [
        SurvivalSample(time=t, event=e) for t, e in zip(times.tolist(), events.tolist())
    ]


def arl_samples(metas, outcomes) -> list[SurvivalSample]:
    """One censored sample per sequence for the run-length curve.

    Event at tau when tau < min(nu, T); otherwise censored at min(nu, T).
    """
    return _samples(*arl_columns(*_columns(metas, outcomes)))


def add_samples(metas, outcomes) -> list[SurvivalSample]:
    """Censored delay samples for the detection-delay curve.

    Only sequences with a changepoint and no false alarm before it are
    eligible; a finite alarm contributes the delay tau - nu as an event,
    a missing alarm contributes T - nu as censored.
    """
    return _samples(*add_columns(*_columns(metas, outcomes)))


def km_arl(metas, outcomes, upper_limit=None) -> MetricEstimate:
    """Area under the run-length survival curve up to the horizon
    (default: the maximum last-observed time)."""
    return estimate("km-arl", *_columns(metas, outcomes), upper_limit)


def km_add(metas, outcomes, upper_limit=None) -> MetricEstimate:
    """Area under the delay survival curve up to the horizon
    (default: the maximum last-observed delay over eligible sequences)."""
    return estimate("km-add", *_columns(metas, outcomes), upper_limit)


def lb_arl(metas, outcomes) -> MetricEstimate:
    """Mean alarm time over no-change sequences that did alarm."""
    return estimate("lb-arl", *_columns(metas, outcomes))


def lb_add(metas, outcomes) -> MetricEstimate:
    """Mean delay over with-change sequences detected at or after the change."""
    return estimate("lb-add", *_columns(metas, outcomes))


def naive_arl(metas, outcomes) -> MetricEstimate:
    """Mean alarm time over all sequences alarming before their changepoint
    (includes false alarms on with-change sequences)."""
    return estimate("naive-arl", *_columns(metas, outcomes))


def compute_metric(name: str, metas, outcomes) -> MetricEstimate:
    return estimate(name, *_columns(metas, outcomes))
