"""Online changepoint detectors producing first-alarm times.

Five detectors share one calling convention: ``run_detector(values, config)``
returns the first frame at which the statistic crosses the configured
threshold, or inf. GSR and CUSUM are likelihood-ratio based and need a
model of the pre/post distributions; EWMA and the two window detectors are
model-free.

All detectors are causal: the alarm time computed on a prefix never changes
when the sequence is extended.

GSR, CUSUM and EWMA scan through ``qcdeval._kernels``. GSR and CUSUM compute
their statistics from prefix sums over fixed blocks of frames, carrying log R
or W across each block edge, so they stay within rounding of the per-frame
recursion at every length. Both alarm once the statistic is within 1e-12 of
the threshold, so an exact tie alarms whatever arithmetic reached it; the
Monte-Carlo oracle applies the same slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .metrics import INF, DetectionOutcome

__all__ = [
    "LikelihoodModel",
    "DetectorConfig",
    "llr_step",
    "run_gsr",
    "run_cusum",
    "run_ewma",
    "run_window",
    "run_detector",
    "DETECTOR_KINDS",
]

DETECTOR_KINDS = ("gsr", "cusum", "ewma", "window-l1", "window-normal")

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class LikelihoodModel:
    """Known pre/post-change distributions for the likelihood-ratio detectors.

    kind "gaussian": mean shift mu0 -> mu1 at shared variance var.
    kind "poisson": rate shift lam0 -> lam1 on count data.
    """

    kind: str
    mu0: float = 0.0
    mu1: float = 0.0
    var: float = 1.0
    lam0: float = 1.0
    lam1: float = 1.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.var <= 0:
                raise ValueError("gaussian model needs var > 0")
        elif self.kind == "poisson":
            if self.lam0 <= 0 or self.lam1 <= 0 or self.lam0 == self.lam1:
                raise ValueError("poisson model needs lam0, lam1 > 0 and distinct")
        else:
            raise ValueError(f"unknown model kind: {self.kind}")

    def llr(self, x):
        """Vectorized per-frame log-likelihood ratio (post vs pre)."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "gaussian":
            return (self.mu1 - self.mu0) / self.var * x - (
                self.mu1**2 - self.mu0**2
            ) / (2.0 * self.var)
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise ValueError("poisson model requires non-negative integer frames")
        return x * math.log(self.lam1 / self.lam0) - (self.lam1 - self.lam0)


def llr_step(model: LikelihoodModel, x: float) -> float:
    """Log-likelihood ratio of a single frame."""
    return float(model.llr(x))


@dataclass(frozen=True)
class DetectorConfig:
    kind: str
    threshold: float
    model: LikelihoodModel | None = None
    omega: float = 0.0  # GSR head start
    ewma_lambda: float = 0.2
    window_size: int = 30
    burn_in: int = 30

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind: {self.kind}")
        if self.kind in ("gsr", "cusum"):
            if self.model is None:
                raise ValueError(f"{self.kind} requires a likelihood model")
        elif self.model is not None:
            raise ValueError(f"{self.kind} does not take a likelihood model")
        if self.kind == "gsr" and self.omega < 0:
            raise ValueError("omega must be >= 0")
        if not 0.0 < self.ewma_lambda <= 1.0:
            raise ValueError("ewma_lambda must be in (0, 1]")
        if self.window_size < 1 or self.burn_in < 0:
            raise ValueError("invalid window_size / burn_in")
        if self.kind == "ewma" and self.burn_in < 1:
            raise ValueError("ewma needs burn_in >= 1 to estimate its control limits")

    def with_threshold(self, threshold: float) -> "DetectorConfig":
        return replace(self, threshold=threshold)


def _as_matrix(values) -> np.ndarray:
    """(frames, features) view of a sequence; 1-D input becomes one feature."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2:
        return arr
    raise ValueError("sequence values must be 1-D or 2-D")


def _scalar_series(values) -> np.ndarray:
    """Univariate series for the likelihood detectors; multivariate input is
    reduced to the norm of the feature vector."""
    arr = _as_matrix(values)
    if arr.shape[1] == 1:
        return np.ascontiguousarray(arr[:, 0])
    return np.linalg.norm(arr, axis=1)


def _outcome(seq_id: str, t: int) -> DetectionOutcome:
    return DetectionOutcome(id=seq_id, tau=INF if t < 0 else float(t))


def run_gsr(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    """Shiryaev-Roberts-type recursion R(t) = (R(t-1) + 1) L(t), R(-1) = omega,
    computed in log space; alarm at R >= threshold."""
    arr = _as_matrix(values)
    if arr.shape[1] != 1:
        raise ValueError("gsr supports univariate sequences only")
    llr = np.ascontiguousarray(config.model.llr(arr[:, 0]))
    log_thr = math.log(config.threshold) if config.threshold > 0 else -INF
    t = _kernels.gsr_first_alarm(llr, log_thr, config.omega)
    return _outcome(seq_id, t)


def run_cusum(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    """Page recursion W(t) = max(0, W(t-1) + llr_t); alarm at W >= threshold."""
    series = _scalar_series(values)
    llr = np.ascontiguousarray(config.model.llr(series))
    t = _kernels.cusum_first_alarm(llr, config.threshold)
    return _outcome(seq_id, t)


def run_ewma(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    """Exponentially weighted moving average with exact time-varying control
    limits estimated from the burn-in frames."""
    arr = _as_matrix(values)
    if arr.shape[1] != 1:
        raise ValueError("ewma supports univariate sequences only")
    x = np.ascontiguousarray(arr[:, 0])
    if x.size < config.burn_in:
        return _outcome(seq_id, -1)
    head = x[: config.burn_in]
    mu0 = float(head.mean())
    sigma0 = float(head.std(ddof=1)) if head.size > 1 else 0.0
    if sigma0 == 0.0:
        sigma0 = _EPS  # degenerate-scale guard: any deviation alarms
    t = _kernels.ewma_first_alarm(
        x, config.ewma_lambda, config.threshold, config.burn_in, mu0, sigma0
    )
    return _outcome(seq_id, t)


def _l1_cost(windows: np.ndarray) -> np.ndarray:
    """Sum over features of sum |x - median| per window; windows has shape
    (n_windows, width, features)."""
    med = np.median(windows, axis=1, keepdims=True)
    return np.abs(windows - med).sum(axis=(1, 2))


def _normal_cost(windows: np.ndarray) -> np.ndarray:
    width = windows.shape[1]
    var = windows.var(axis=1)  # per feature
    return 0.5 * width * np.log(var + 1e-12).sum(axis=1)


def run_window(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    """Two-sample window scan: at each frame the trailing 2w frames are split
    in half and the cost gain of the split is the discrepancy statistic.

    Alarms start at t = burn_in + 2w - 1 so both halves are always full.
    """
    arr = _as_matrix(values)
    w = config.window_size
    n = arr.shape[0]
    first_t = config.burn_in + 2 * w - 1
    if n <= first_t:
        return _outcome(seq_id, -1)

    cost = _l1_cost if config.kind == "window-l1" else _normal_cost
    joint = np.lib.stride_tricks.sliding_window_view(arr, 2 * w, axis=0)
    halves = np.lib.stride_tricks.sliding_window_view(arr, w, axis=0)
    # Window starting at frame r spans frames [r, r + width); stride views put
    # the window axis last, so move it next to the frame axis.
    joint_cost = cost(np.moveaxis(joint, -1, 1))
    half_cost = cost(np.moveaxis(halves, -1, 1))

    # Right edge t corresponds to joint window starting at t - 2w + 1.
    starts = np.arange(n - 2 * w + 1)
    d = joint_cost - half_cost[starts] - half_cost[starts + w]
    t_edges = starts + 2 * w - 1
    ok = t_edges >= first_t
    hits = np.nonzero(ok & (d >= config.threshold))[0]
    return _outcome(seq_id, int(t_edges[hits[0]]) if hits.size else -1)


_RUNNERS = {
    "gsr": run_gsr,
    "cusum": run_cusum,
    "ewma": run_ewma,
    "window-l1": run_window,
    "window-normal": run_window,
}


def run_detector(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    return _RUNNERS[config.kind](values, config, seq_id)
