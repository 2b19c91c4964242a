"""End-to-end evaluation pipeline.

Ingests labeled datasets, sweeps detector thresholds, computes the five
metrics with SEMs per threshold, and renders the results as CSV and as a
hand-rolled SVG tradeoff plot.

Every run of a detector over a dataset goes through ``alarm_columns``: the
grid becomes detector levels once (``detectors.detector_levels``), each
sequence is scanned once for all of them (``detectors.scan``), and the
labels become two float columns, lengths and changepoints. The result is
the (lengths, nu, tau) triple the metrics read, with tau a (sequences x
thresholds) table of first alarms (inf for no alarm). ``sweep`` computes
every metric at every threshold from it with ``metrics.estimate``, and the
CLI's ``survival`` fits one column of it. Sequences are never matched by id:
``ingest`` rejects a repeated id.

Determinism contract: identical (dataset hash, detector config, grid) yield
byte-identical CSV. Sequences are scanned one after the other in dataset
order. A detector that rejects a sequence (``ValueError``) fails the whole
run, naming the sequence id: a crash is never counted as a censored run.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorConfig, detector_levels, scan
# Unused here, kept because qcdbench's traced runs wrap harness.run_detector.
from .detectors import run_detector  # noqa: F401
from .metrics import INF, DetectionOutcome, SequenceMeta, estimate
# Unused here, kept because qcdbench's traced runs wrap harness.compute_metric.
from .metrics import compute_metric  # noqa: F401
from .simulate import LabeledDataset

__all__ = [
    "IngestReport",
    "CurvePoint",
    "SweepResult",
    "ingest",
    "alarm_columns",
    "sweep",
    "emit_curve",
    "write_manifest",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IngestReport:
    n_loaded: int
    n_dropped_short: int
    n_rejected: int
    diagnostics: tuple = ()


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    estimates: dict  # metric name -> MetricEstimate


@dataclass(frozen=True)
class SweepResult:
    config: DetectorConfig
    thresholds: tuple
    points: list[CurvePoint]
    t_max: float  # largest possible run-length observation in the dataset


def _parse_record(obj: dict, line_no: int):
    try:
        seq_id = str(obj["id"])
        values = np.asarray(obj["values"], dtype=np.float64)
        nu = None if obj["nu"] is None else float(obj["nu"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed record at line {line_no}: {exc}") from None
    if values.ndim not in (1, 2) or values.size == 0:
        raise ValueError(f"malformed record at line {line_no}: bad values shape")
    return _checked(seq_id, values, nu, line_no)


def _checked(seq_id: str, values: np.ndarray, nu, line_no: int):
    """Reject non-finite frames and changepoints; nu None (no change) becomes
    inf. A NaN or infinite frame would never alarm some detectors, and an
    infinite changepoint would read as "no change": both would be counted as
    censored runs instead of failing."""
    if not np.isfinite(values).all():
        raise ValueError(f"malformed record at line {line_no}: non-finite value")
    if nu is None:
        return line_no, seq_id, values, INF
    if not math.isfinite(nu):
        raise ValueError(f"malformed record at line {line_no}: non-finite changepoint")
    return line_no, seq_id, values, nu


def _iter_jsonl(path):
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed record at line {line_no}: {exc}") from None
            yield _parse_record(obj, line_no)


def _iter_csv(path):
    """CSV layout: one sequence per row, ``id,nu,v0,v1,...`` with an empty
    nu field meaning no change."""
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"malformed record at line {line_no}: too few fields")
            try:
                nu = None if row[1] == "" else float(row[1])
                values = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"malformed record at line {line_no}: {exc}") from None
            yield _checked(row[0], values, nu, line_no)


def ingest(path, fmt: str = "jsonl", min_length: int = 2) -> LabeledDataset:
    """Load and validate a labeled dataset.

    Sequences shorter than ``min_length`` are dropped; records whose
    changepoint does not index an observed frame (nu >= T) are rejected.
    Both are counted in the report attached as ``dataset.ingest_report``.
    Structurally malformed records, records holding a NaN or infinite frame
    or changepoint, and a repeated id raise with their line number.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    records = _iter_jsonl(path) if fmt == "jsonl" else _iter_csv(path)
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {fmt}")
    metas, values = [], []
    dropped = rejected = 0
    diagnostics = []
    seen = set()
    for line_no, seq_id, vals, nu in records:
        if seq_id in seen:
            raise ValueError(
                f"malformed record at line {line_no}: duplicate id {seq_id!r}"
            )
        seen.add(seq_id)
        length = vals.shape[0]
        if length < min_length:
            dropped += 1
            continue
        try:
            metas.append(SequenceMeta(id=seq_id, length_T=length, changepoint_nu=nu))
        except ValueError as exc:
            rejected += 1
            diagnostics.append(str(exc))
            continue
        values.append(vals)
    dataset = LabeledDataset(metas=metas, values=values)
    dataset.ingest_report = IngestReport(
        n_loaded=len(metas),
        n_dropped_short=dropped,
        n_rejected=rejected,
        diagnostics=tuple(diagnostics),
    )
    for diag in diagnostics:
        log.warning("rejected record: %s", diag)
    if dropped:
        log.info("%d sequence(s) dropped below min_length=%d", dropped, min_length)
    return dataset


def _alarm_table(dataset: LabeledDataset, config: DetectorConfig, thresholds):
    """First alarm frame of every sequence (rows, in dataset order) at every
    threshold of the grid (columns), -1 for no alarm."""
    levels = detector_levels(config, thresholds)
    table = np.empty((len(dataset.metas), levels.size), dtype=np.int64)
    for row, (meta, values) in enumerate(zip(dataset.metas, dataset.values)):
        try:
            table[row] = scan(values, config, levels)
        except ValueError as exc:
            raise ValueError(f"sequence {meta.id!r}: {exc}") from exc
    return table


def _label_columns(dataset: LabeledDataset):
    """Float (lengths, nu) columns in dataset order, nu inf for no change."""
    lengths = np.array([m.length_T for m in dataset.metas], dtype=np.float64)
    nu = np.array([m.changepoint_nu for m in dataset.metas], dtype=np.float64)
    return lengths, nu


def alarm_columns(dataset: LabeledDataset, config: DetectorConfig, thresholds):
    """The (lengths, nu, tau) columns of the detector on the dataset, in
    dataset order: float lengths and changepoints (inf for no change), and a
    (sequences x thresholds) float table of first alarms (inf for no alarm),
    from one scan per sequence (``config.threshold`` is not used)."""
    frames = _alarm_table(dataset, config, thresholds)
    return (*_label_columns(dataset), np.where(frames < 0, INF, frames))


# Not called by the program; kept because qcdbench's traced runs wrap it.
def run_all(dataset: LabeledDataset, config: DetectorConfig, workers: int = 1):
    """Run the detector at ``config.threshold`` on every sequence, in dataset
    order. ``workers`` has no effect; it stays because the acceptance tests
    pass it."""
    tau = alarm_columns(dataset, config, [config.threshold])[2][:, 0]
    return [DetectionOutcome(m.id, t) for m, t in zip(dataset.metas, tau.tolist())]


def _t_max(lengths, nu) -> float:
    return float(np.max(np.minimum(nu, lengths), initial=0.0))


def observation_bounds(dataset: LabeledDataset) -> tuple[float, float]:
    """Largest possible run-length and delay observations: max of min(nu, T)
    and max of T - nu over with-change sequences (T - inf never wins). These
    bound the horizons of the censoring-aware estimators; beyond them the
    curves extrapolate."""
    lengths, nu = _label_columns(dataset)
    return _t_max(lengths, nu), float(np.max(lengths - nu, initial=0.0))


def sweep(
    dataset: LabeledDataset,
    config: DetectorConfig,
    thresholds,
    metrics,
    workers: int = 1,
) -> SweepResult:
    """Evaluate the requested metrics at every threshold of the grid, from one
    detector pass per sequence (``config.threshold`` is not used).
    ``workers`` has no effect; it stays because the acceptance tests pass
    it."""
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("empty threshold grid")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    metrics = tuple(metrics)
    if not metrics:
        raise ValueError("no metrics requested")

    lengths, nu, taus = alarm_columns(dataset, config, thresholds)
    points = []
    for thr, tau in zip(thresholds, taus.T):
        estimates = {name: estimate(name, lengths, nu, tau) for name in metrics}
        points.append(CurvePoint(threshold=thr, estimates=estimates))
    return SweepResult(config, thresholds, points, t_max=_t_max(lengths, nu))


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def emit_curve(result: SweepResult, out_path, fmt: str = "csv") -> None:
    """Write a sweep as CSV (one row per threshold x metric) or as an SVG
    tradeoff scatter (log-x ARL vs ADD, error bars, shaded region past the
    largest observable run length)."""
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["threshold", "metric", "value", "sem", "n_used", "extrapolation_flag"]
            )
            writer.writerows(
                [repr(p.threshold), name, _fmt(est.value), _fmt(est.sem), est.n_used,
                 int(est.extrapolation_flag)]
                for p in result.points
                for name, est in p.estimates.items()
            )
    elif fmt == "svg":
        with open(out_path, "w") as fh:
            fh.write(_render_svg(result))
    else:
        raise ValueError(f"unknown curve format: {fmt}")


_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _pairs(result: SweepResult, arl_name: str, add_name: str):
    for p in result.points:
        arl = p.estimates.get(arl_name)
        add = p.estimates.get(add_name)
        if arl and add and arl.value is not None and add.value is not None:
            yield arl, add


def _render_svg(result: SweepResult) -> str:
    families = [("km", "km-arl", "km-add"), ("lb", "lb-arl", "lb-add")]
    xs, ys = [], []
    for _, arl_name, add_name in families:
        for arl, add in _pairs(result, arl_name, add_name):
            xs.append(max(arl.value, 1e-3))
            ys.append(add.value)
    if not xs:
        xs, ys = [1.0], [1.0]
    x_lo = min(min(xs), max(result.t_max, 1e-3)) / 1.5
    x_hi = max(max(xs), result.t_max if result.t_max > 0 else 1.0) * 1.5
    y_lo, y_hi = 0.0, max(max(ys), 1.0) * 1.1

    def sx(v):
        v = max(v, 1e-9)
        frac = (math.log10(v) - math.log10(x_lo)) / (
            math.log10(x_hi) - math.log10(x_lo)
        )
        return _MARGIN + frac * (_SVG_W - 2 * _MARGIN)

    def sy(v):
        frac = (v - y_lo) / (y_hi - y_lo)
        return _SVG_H - _MARGIN - frac * (_SVG_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    # Shaded extrapolation region: run lengths beyond the largest observable
    # time cannot be estimated without extrapolating the survival curve.
    if result.t_max > 0 and result.t_max < x_hi:
        x0 = sx(result.t_max)
        parts.append(
            f'<rect class="extrapolation-region" x="{x0:.2f}" y="{_MARGIN}" '
            f'width="{_SVG_W - _MARGIN - x0:.2f}" '
            f'height="{_SVG_H - 2 * _MARGIN}" fill="#dddddd" opacity="0.6"/>'
        )
    # Axes.
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>'
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 15}" text-anchor="middle">'
        "mean run length (log scale)</text>"
        f'<text x="15" y="{_SVG_H // 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {_SVG_H // 2})">mean detection delay</text>'
    )
    colors = {"km": "#1f77b4", "lb": "#d62728"}
    for fam, arl_name, add_name in families:
        color = colors[fam]
        for arl, add in _pairs(result, arl_name, add_name):
            cx, cy = sx(max(arl.value, 1e-3)), sy(add.value)
            if arl.sem:
                parts.append(
                    f'<line class="errorbar-{fam}" '
                    f'x1="{sx(max(arl.value - arl.sem, 1e-9)):.2f}" y1="{cy:.2f}" '
                    f'x2="{sx(arl.value + arl.sem):.2f}" y2="{cy:.2f}" '
                    f'stroke="{color}"/>'
                )
            if add.sem:
                parts.append(
                    f'<line class="errorbar-{fam}" x1="{cx:.2f}" '
                    f'y1="{sy(max(add.value - add.sem, y_lo)):.2f}" x2="{cx:.2f}" '
                    f'y2="{sy(min(add.value + add.sem, y_hi)):.2f}" '
                    f'stroke="{color}"/>'
                )
            parts.append(
                f'<circle class="marker-{fam}" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="4" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_manifest(path, *, command: str, config: dict, seed: int, dataset_hash=None):
    """Persist a reproducibility manifest. Every command writes it after its
    result files, so a run that fails on its inputs leaves neither."""
    from . import __version__

    manifest = {
        "tool": "qcdeval",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "dataset_hash": dataset_hash,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
