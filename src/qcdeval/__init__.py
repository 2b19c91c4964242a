"""Censoring-aware evaluation of quickest changepoint detectors.

Treats "how long until a false alarm" and "how long until detection" as
right-censored lifetimes: finite sequences censor the observation, and the
product-limit estimator recovers mean run length and mean detection delay
without the selection bias of averaging only the observed alarms.
"""

from .detectors import (
    DETECTOR_KINDS,
    DetectorConfig,
    LikelihoodModel,
    run_detector,
)
from .metrics import (
    INF,
    METRIC_NAMES,
    DetectionOutcome,
    MetricEstimate,
    SequenceMeta,
    compute_metric,
    km_add,
    km_arl,
    lb_add,
    lb_arl,
    naive_arl,
)
from .survival import (
    RestrictedMean,
    StepSurvivalCurve,
    SurvivalSample,
    fit_km,
    rmst,
)

__version__ = "0.1.0"

# Kept for callers that record which scan backend ran: the numpy kernels in
# qcdeval._kernels are the only one.
USING_COMPILED = False

__all__ = [
    "__version__",
    "USING_COMPILED",
    "SurvivalSample",
    "StepSurvivalCurve",
    "RestrictedMean",
    "fit_km",
    "rmst",
    "SequenceMeta",
    "DetectionOutcome",
    "MetricEstimate",
    "METRIC_NAMES",
    "INF",
    "km_arl",
    "km_add",
    "lb_arl",
    "lb_add",
    "naive_arl",
    "compute_metric",
    "LikelihoodModel",
    "DetectorConfig",
    "DETECTOR_KINDS",
    "run_detector",
]
