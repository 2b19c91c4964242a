"""Online changepoint detectors producing first-alarm times.

Five detectors share one calling convention. ``detector_levels`` turns a
threshold grid into statistic levels once per run, and ``scan(values,
config, levels)`` returns the first frame at which the statistic reaches
each level, or -1 where it never does, so one scan of a sequence serves
every threshold. ``alarm_frames(values, config, thresholds)`` is the two in
a row; ``run_detector(values, config)`` is its one-threshold case at
``config.threshold``, returning the alarm as a ``DetectionOutcome`` (tau =
inf for no alarm). GSR and CUSUM are
likelihood-ratio based and need a model of the pre/post distributions; EWMA
and the two window detectors are model-free.

All detectors are causal: the alarm time computed on a prefix never changes
when the sequence is extended.

``scan_table(dataset, config, levels)`` is ``scan`` of every sequence of a
dataset. GSR and CUSUM run it as one blocked kernel over the frame buffer
(``qcdeval._kernels``), from prefix sums over fixed blocks of frames that
carry log R or W across each block edge, so they stay within rounding of the
per-frame recursion at every length. Both alarm once the statistic is within
1e-12 * max(1, |level|) of a finite level (``_kernels.tie_levels``), as the
Monte-Carlo oracle does. EWMA and the window detectors scan one sequence at
a time.
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
    "run_detector",
    "detector_levels",
    "scan",
    "scan_table",
    "alarm_frames",
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
        for name in ("mu0", "mu1", "var", "lam0", "lam1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"model parameter {name} must be finite, got {value!r}")
        if self.kind == "gaussian":
            if self.var <= 0:
                raise ValueError("gaussian model needs var > 0")
        elif self.kind == "poisson":
            if self.lam0 <= 0 or self.lam1 <= 0 or self.lam0 == self.lam1:
                raise ValueError("poisson model needs lam0, lam1 > 0 and distinct")
        else:
            raise ValueError(f"unknown model kind: {self.kind}")

    @property
    def llr_coefficients(self) -> tuple[float, float]:
        """(slope, offset) of the per-frame llr(x) = slope * x - offset."""
        if self.kind == "gaussian":
            return (self.mu1 - self.mu0) / self.var, (self.mu1**2 - self.mu0**2) / (2.0 * self.var)
        return math.log(self.lam1 / self.lam0), self.lam1 - self.lam0

    def rejects(self, x: np.ndarray) -> np.ndarray:
        """Mask of the float frames ``x`` that ``llr`` refuses: negative or
        non-integer counts under a Poisson model, none under a Gaussian one."""
        if self.kind == "gaussian":
            return np.zeros(x.shape, dtype=bool)
        return (x < 0) | (x != np.floor(x))

    def llr(self, x):
        """Vectorized per-frame log-likelihood ratio (post vs pre)."""
        x = np.asarray(x, dtype=np.float64)
        if self.rejects(x).any():
            raise ValueError("poisson model requires non-negative integer frames")
        slope, offset = self.llr_coefficients
        return slope * x - offset


@dataclass(frozen=True)
class DetectorConfig:
    kind: str
    threshold: float | None  # None where a sweep passes a grid instead
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
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
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


def _univariate(values, config: DetectorConfig) -> np.ndarray:
    arr = _as_matrix(values)
    if arr.shape[1] != 1:
        raise ValueError(f"{config.kind} supports univariate sequences only")
    return arr[:, 0]


def detector_levels(config: DetectorConfig, thresholds) -> np.ndarray:
    """The level each threshold of a grid (scalar or array, read in C order)
    sets for the configured detector's statistic, as a 1-D float64 array:
    log h for gsr (-inf for h <= 0), h itself for the others."""
    grid = np.ravel(np.asarray(thresholds, dtype=np.float64))
    if np.isnan(grid).any():
        raise ValueError("threshold grid must not contain NaN")
    if config.kind != "gsr":
        return grid
    # math.log one threshold at a time, not a vectorised np.log: the two
    # differ in the last bit for some thresholds, and log h sets the level
    # that exact ties are resolved against.
    return np.array([math.log(h) if h > 0 else -INF for h in grid.tolist()])


def _llr_frames(values, config: DetectorConfig, levels):
    """GSR: the Shiryaev-Roberts-type recursion R(t) = (R(t-1) + 1) L(t),
    R(-1) = omega, in log space, alarming at log R >= level. CUSUM: the Page
    recursion W(t) = max(0, W(t-1) + llr_t), alarming at W >= level."""
    llr = config.model.llr(_univariate(values, config))
    if config.kind == "gsr":
        return _kernels.gsr_first_alarm(llr, levels, config.omega)
    return _kernels.cusum_first_alarm(llr, levels)


def _ewma_frames(values, config: DetectorConfig, levels):
    """Exponentially weighted moving average with exact time-varying control
    limits estimated from the burn-in frames."""
    x = np.ascontiguousarray(_univariate(values, config))
    if x.size < config.burn_in:
        return _kernels.first_crossings(x[:0], levels)  # no frame alarms
    head = x[: config.burn_in]
    with np.errstate(over="ignore", invalid="ignore"):
        mu0 = float(head.mean())
        sigma0 = float(head.std(ddof=1)) if head.size > 1 else 0.0
    if not (math.isfinite(mu0) and math.isfinite(sigma0)):
        raise ValueError(f"ewma burn-in mean {mu0} or sd {sigma0} is not finite")
    if sigma0 == 0.0:
        sigma0 = _EPS  # degenerate-scale guard: any deviation alarms
    return _kernels.ewma_first_alarm(
        x, config.ewma_lambda, levels, config.burn_in, mu0, sigma0
    )


def _l1_cost(windows: np.ndarray) -> np.ndarray:
    """Sum over features of sum |x - median| per window; windows has shape
    (n_windows, width, features)."""
    med = np.median(windows, axis=1, keepdims=True)
    return np.abs(windows - med).sum(axis=(1, 2))


def _normal_cost(windows: np.ndarray) -> np.ndarray:
    width = windows.shape[1]
    # Frames near the float64 limit overflow the variance to inf (and the
    # gain to inf - inf); there, log var = log var(x / s) + 2 log s with
    # s = max |x| keeps the cost of finite frames finite.
    with np.errstate(over="ignore", invalid="ignore"):
        var = windows.var(axis=1)  # per feature
    log_var = np.log(var + 1e-12)
    big = ~np.isfinite(var)
    if big.any():
        x = np.moveaxis(windows, 2, 1)[big]
        s = np.abs(x).max(axis=1)
        log_var[big] = np.log((x / s[:, None]).var(axis=1)) + 2.0 * np.log(s)
    return 0.5 * width * log_var.sum(axis=1)


def _window_frames(values, config: DetectorConfig, levels):
    """Two-sample window scan: at each frame the trailing 2w frames are split
    in half and the cost gain of the split is the discrepancy statistic.

    Alarms start at t = burn_in + 2w - 1 so both halves are always full.
    """
    arr = _as_matrix(values)
    w = config.window_size
    n = arr.shape[0]
    first_t = config.burn_in + 2 * w - 1
    if n <= first_t:
        return _kernels.first_crossings(arr[:0, 0], levels)  # no frame alarms

    cost = _l1_cost if config.kind == "window-l1" else _normal_cost
    joint = np.lib.stride_tricks.sliding_window_view(arr, 2 * w, axis=0)
    halves = np.lib.stride_tricks.sliding_window_view(arr, w, axis=0)
    # Window starting at frame r spans frames [r, r + width); stride views put
    # the window axis last, so move it next to the frame axis.
    joint_cost = cost(np.moveaxis(joint, -1, 1))
    half_cost = cost(np.moveaxis(halves, -1, 1))

    # The joint window starting at r has its right edge at t = r + 2w - 1;
    # the gain is padded in front so that it is indexed by t.
    starts = np.arange(n - 2 * w + 1)
    gain = joint_cost - half_cost[starts] - half_cost[starts + w]
    return _kernels.first_crossings(np.pad(gain, (2 * w - 1, 0)), levels, first_t)


_FRAMES = {
    "gsr": _llr_frames,
    "cusum": _llr_frames,
    "ewma": _ewma_frames,
    "window-l1": _window_frames,
    "window-normal": _window_frames,
}


def scan(values, config: DetectorConfig, levels) -> np.ndarray:
    """First alarm frame at each of the 1-D ``levels`` (-1 for none), from one
    statistic; each equals that of a run at its level alone, ties included."""
    return _FRAMES[config.kind](values, config, levels)


def _scan_one(seq_id, values, config: DetectorConfig, levels):
    try:
        return scan(values, config, levels)
    except ValueError as exc:
        raise ValueError(f"sequence {seq_id!r}: {exc}") from exc


_CHECK_FRAMES = 1 << 16  # frames per slice of the model's frame check


def _first_rejected(dataset, model: LikelihoodModel) -> int:
    """Index of the first sequence ``scan`` rejects for GSR or CUSUM (or len):
    two or more columns, or a frame the model rejects."""
    wide = np.flatnonzero(dataset.widths >= 2)
    first = int(wide[0]) if wide.size else len(dataset)
    x = dataset.frames[: dataset.offsets[first]]
    for a in range(0, x.size, _CHECK_FRAMES):
        bad = np.flatnonzero(model.rejects(x[a : a + _CHECK_FRAMES]))
        if bad.size:
            return int(np.searchsorted(dataset.offsets, a + bad[0], "right")) - 1
    return first


def scan_table(dataset, config: DetectorConfig, levels) -> np.ndarray:
    """First alarm frame of every sequence of a ``LabeledDataset`` (rows, in
    dataset order) at each of the 1-D ``levels`` (-1 for none), equal row for
    row to ``scan``. The first sequence the detector rejects raises
    ``ValueError("sequence '<id>': <scan's message>")``."""
    if config.kind not in ("gsr", "cusum"):
        table = np.empty((len(dataset), np.size(levels)), dtype=np.int64)
        for row, (seq_id, values) in enumerate(zip(dataset.ids, dataset.values)):
            table[row] = _scan_one(seq_id, values, config, levels)
        return table
    row = _first_rejected(dataset, config.model)
    if row < len(dataset):
        _scan_one(dataset.ids[row], dataset.values[row], config, levels)  # raises
    llr = config.model.llr
    if config.kind == "gsr":
        return _kernels.gsr_alarm_table(dataset.frames, dataset.offsets, levels, config.omega, llr)
    return _kernels.cusum_alarm_table(dataset.frames, dataset.offsets, levels, llr)


def alarm_frames(values, config: DetectorConfig, thresholds):
    """First alarm frame of the configured detector at each threshold, -1
    where it does not alarm: an int for a scalar threshold, an int array of
    the thresholds' shape for an array (``config.threshold`` is not used)."""
    shape = np.shape(thresholds)
    frames = scan(values, config, detector_levels(config, thresholds))
    return frames.reshape(shape) if shape else int(frames[0])


def run_detector(values, config: DetectorConfig, seq_id: str = "") -> DetectionOutcome:
    """First alarm at ``config.threshold`` (tau = inf for no alarm)."""
    t = alarm_frames(values, config, config.threshold)
    return DetectionOutcome(id=seq_id, tau=INF if t < 0 else float(t))
