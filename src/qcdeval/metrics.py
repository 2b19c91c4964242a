"""Run-length and detection-delay estimators over labeled sequence datasets.

Computes the censoring-aware estimators (KM-ARL, KM-ADD) next to the
conventional selection-based baselines (LB-ARL, LB-ADD, Naive ARL). All five
read the same per-sequence columns: length T, changepoint ``nu`` and first
alarm ``tau``. ``estimate`` computes each as a masked array expression over
them: the KM metrics censor and fit a product-limit curve, the baselines
average a selection. The object-level functions (``compute_metric``,
``km_arl``, ..., ``arl_samples``) match outcomes to sequences by id in one
place, ``_columns``, and hand the columns to the same code.

Conventions: the changepoint ``nu`` and the detection point ``tau`` are frame
indices, with ``math.inf`` meaning "no change" / "no alarm". A sequence
contributes to the ARL samples as an observed event only when its alarm
strictly precedes min(nu, T); a tie counts as censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .survival import SurvivalSample, fit_km_arrays, rmst
# Unused here, kept because qcdbench's traced runs wrap metrics.fit_km.
from .survival import fit_km  # noqa: F401

__all__ = [
    "INF",
    "SequenceMeta",
    "DetectionOutcome",
    "MetricEstimate",
    "METRIC_NAMES",
    "arl_samples",
    "add_samples",
    "km_arl",
    "km_add",
    "lb_arl",
    "lb_add",
    "naive_arl",
    "compute_metric",
    "estimate",
]

INF = math.inf

METRIC_NAMES = ("km-arl", "km-add", "lb-arl", "lb-add", "naive-arl")


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


def _arl(lengths, nu, tau):
    """Run-length samples: an event at tau when tau < min(nu, T), otherwise
    censored at min(nu, T)."""
    censor = np.minimum(nu, lengths)
    events = tau < censor
    return np.where(events, tau, censor), events


def _add(lengths, nu, tau):
    """Delay samples over sequences with a change and no alarm before it: an
    event at tau - nu for a finite alarm, otherwise censored at T - nu."""
    keep = (nu != INF) & ~(tau < nu)
    tau, nu = tau[keep], nu[keep]
    events = tau != INF
    return np.where(events, tau - nu, lengths[keep] - nu), events


def _km(name, times, events, upper_limit):
    if times.size == 0:
        return _undefined(name)
    curve = fit_km_arrays(times, events)
    a = float(times.max()) if upper_limit is None else float(upper_limit)
    rm = rmst(curve, a)
    sem = math.sqrt(rm.variance / curve.n_samples)
    # Extrapolation: the horizon exceeds the data, or the curve never drops
    # below 1 so the whole estimate is the horizon itself.
    flag = rm.extrapolated or (
        curve.survival_at(a) > 0.0 and abs(rm.value - a) <= 1e-12 * max(a, 1.0)
    )
    return MetricEstimate(
        name=name,
        value=rm.value,
        sem=sem,
        n_used=curve.n_samples,
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


def estimate(name: str, lengths, nu, tau, upper_limit=None) -> MetricEstimate:
    """One metric from per-sequence columns: length T, changepoint nu and
    first alarm tau, float arrays of equal length with inf meaning no change
    or no alarm.

    ``upper_limit`` is the horizon of ``km-arl`` and ``km-add`` (default: the
    largest observed time); the selection means take none.
    """
    lengths, nu, tau = (np.asarray(a, dtype=np.float64) for a in (lengths, nu, tau))
    if name == "km-arl":
        return _km(name, *_arl(lengths, nu, tau), upper_limit)
    if name == "km-add":
        return _km(name, *_add(lengths, nu, tau), upper_limit)
    if name not in METRIC_NAMES:
        raise ValueError(f"unknown metric: {name}")
    if upper_limit is not None:
        raise ValueError(f"{name} takes no upper_limit")
    if name == "lb-arl":  # no-change sequences that did alarm
        return _mean(name, tau[(nu == INF) & (tau != INF)])
    if name == "lb-add":  # with-change sequences detected at or after the change
        hit = (nu != INF) & (tau != INF) & (tau >= nu)
        return _mean(name, tau[hit] - nu[hit])
    # naive-arl: every alarm before its changepoint, false alarms included
    return _mean(name, tau[tau < nu])


def _samples(times, events) -> list[SurvivalSample]:
    return [
        SurvivalSample(time=t, event=e) for t, e in zip(times.tolist(), events.tolist())
    ]


def arl_samples(metas, outcomes) -> list[SurvivalSample]:
    """One censored sample per sequence for the run-length curve.

    Event at tau when tau < min(nu, T); otherwise censored at min(nu, T).
    """
    return _samples(*_arl(*_columns(metas, outcomes)))


def add_samples(metas, outcomes) -> list[SurvivalSample]:
    """Censored delay samples for the detection-delay curve.

    Only sequences with a changepoint and no false alarm before it are
    eligible; a finite alarm contributes the delay tau - nu as an event,
    a missing alarm contributes T - nu as censored.
    """
    return _samples(*_add(*_columns(metas, outcomes)))


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
