"""Run-length and detection-delay estimators over labeled sequence datasets.

Computes the censoring-aware estimators (KM-ARL, KM-ADD) next to the
conventional selection-based baselines (LB-ARL, LB-ADD, Naive ARL). All five
read two sample tables of a (sequences x thresholds) table of first alarms,
each rule written once: the ARL table (``arl_columns``) and the ADD table
(``_add_table``), built in blocks of about ``survival._BLOCK_SAMPLES``
cells (the package's one block size) that every metric reads. KM-ARL and
KM-ADD fit each threshold's product-limit curve
(``survival._restricted_rows``, one integral with ``rmst``); the baselines
are the tables' uncensored cells: Naive ARL averages the ARL
events, LB-ARL those of no-change sequences, LB-ADD the ADD events. So an
alarm that is NaN or finite outside [0, T) raises, instead of being
censored by one metric and averaged by another. ``_estimates`` computes any
metrics from one pass over the tables (``sweep`` calls it),
``estimate_columns`` one metric and ``estimate`` one column. The
object-level functions (``compute_metric``,
``km_arl``, ..., ``arl_samples``) match outcomes to sequences by id in one
place, ``_columns``.

Conventions: the changepoint ``nu`` and the detection point ``tau`` are frame
indices, with ``math.inf`` meaning "no change" / "no alarm". A sequence
contributes to the ARL samples as an observed event only when its alarm
strictly precedes min(nu, T); a tie counts as censored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .survival import _BLOCK_SAMPLES, SurvivalSample, _restricted_rows
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


def _changepoint_ok(nu, lengths):
    """Where a changepoint nu (scalar or array) labels a sequence of length
    T: it is inf (no change) or an integer in [0, T)."""
    return (nu == INF) | ((nu >= 0) & (nu == np.floor(nu)) & (nu < lengths))


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
        if not _changepoint_ok(nu, self.length_T):
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
        return asdict(self)


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
    """The ARL table, laid out as ``tau`` (one column or a K x n table): an
    event at tau when tau < min(nu, T), otherwise censored at min(nu, T)."""
    censor = np.minimum(nu, lengths)
    events = tau < censor
    return np.where(events, tau, censor), events


def _add_table(lengths, nu, tau):
    """The ADD table (times, events, used), laid out as ``tau``: a sequence
    with a change and no alarm before it gives an event at tau - nu, or a
    censoring at T - nu if it never alarmed; any other cell is unused, a
    +inf censoring (a pad of ``survival._restricted_rows``)."""
    used = (nu != INF) & ~(tau < nu)  # a NaN stays used: the fit rejects it
    events = used & (tau != INF)
    times = np.where(events, tau, lengths) - nu
    times[~used] = INF
    return times, events, used


def add_columns(lengths, nu, tau):
    """One column's delay samples: the used cells of the ADD table."""
    times, events, used = _add_table(lengths, nu, tau)
    return times[used], events[used]


def _check(what, x, ok, lengths):
    """Raise on the first cell of ``x`` (a column, or a table laid out
    (K, n)) whose ``ok`` is false."""
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        seq = i % lengths.size
        raise ValueError(
            f"invalid {what} {x.flat[i]} of sequence {seq} (length {lengths[seq]:g})")


def _km_columns(name, times, events, counts, upper_limit):
    """KM-ARL or KM-ADD at every row of a block of a (K, n) sample table,
    whose row j holds ``counts[j]`` samples and n - counts[j] +inf
    censorings (pads): one product-limit fit of the block."""
    out = [_undefined(name)] * len(times)
    rows = np.flatnonzero(counts)
    if rows.size < len(times):  # a row without samples is not fitted
        times, events = times[rows], events[rows]
    if rows.size:
        fits = _restricted_rows(times, events, times.shape[1] - counts[rows], upper_limit)
        for j, *fit in zip(rows.tolist(), *(x.tolist() for x in fits)):
            out[j] = _km(name, int(counts[j]), *fit)
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


def _estimates(names, lengths, nu, taus, upper_limit=None) -> dict:
    """``estimate_columns`` of every metric in ``names``, keyed by name. The
    ARL and ADD tables are built in blocks of whole thresholds, about
    ``_BLOCK_SAMPLES`` cells each, and every metric reads each block."""
    for name in names:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric: {name}")
        if upper_limit is not None and not name.startswith("km-"):
            raise ValueError(f"{name} takes no upper_limit")
    lengths, nu, taus = (np.asarray(a, dtype=np.float64) for a in (lengths, nu, taus))
    n, k = taus.shape
    _check("length", lengths, (lengths >= 0) & (lengths < INF), lengths)
    _check("changepoint", nu, _changepoint_ok(nu, lengths), lengths)
    out = {name: [] for name in names}  # one entry per metric, repeated or not
    step = max(1, _BLOCK_SAMPLES // max(n, 1))
    for first in range(0, k, step):
        tau = np.ascontiguousarray(taus[:, first:first + step].T)  # (thresholds, n)
        # Every alarm inf (no alarm) or in [0, T).
        _check("alarm", tau, ((tau < lengths) | (tau == INF)) & (tau >= 0), lengths)
        # Each table with its sample count per threshold.
        arl = (*arl_columns(lengths, nu, tau), np.full(len(tau), n))
        times, events, used = _add_table(lengths, nu, tau)
        add = times, events, np.count_nonzero(used, axis=1)
        for name in out:
            times, events, counts = add if name.endswith("-add") else arl
            if name.startswith("km-"):
                out[name] += _km_columns(name, times, events, counts, upper_limit)
            else:  # a baseline: the mean of a table's uncensored cells
                if name == "lb-arl":  # of no-change sequences only
                    events = events & (nu == INF)
                out[name] += [_mean(name, t[e]) for t, e in zip(times, events)]
    return out


def estimate_columns(name: str, lengths, nu, taus, upper_limit=None) -> list[MetricEstimate]:
    """One metric at every column of a first-alarm table: ``lengths`` and
    changepoints ``nu`` are float arrays with one entry per sequence, and
    ``taus`` a (sequences x K) float table whose column j holds every
    sequence's first alarm at threshold j, inf meaning no change or no alarm.
    Returns the K estimates in column order; a NaN alarm or one outside
    [0, T), or a changepoint that is neither inf nor an integer in [0, T),
    raises ``ValueError``.

    ``upper_limit`` is the horizon of ``km-arl`` and ``km-add`` (default: each
    column's largest observed time); the selection means take none.
    """
    return _estimates((name,), lengths, nu, taus, upper_limit)[name]


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
