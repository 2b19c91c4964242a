"""End-to-end evaluation pipeline.

Ingests labeled datasets, sweeps detector thresholds, computes the five
metrics with SEMs per threshold, and renders the results as CSV and as a
hand-rolled SVG tradeoff plot.

A dataset is one layout from file to scan: the flat columns of
``simulate.LabeledDataset`` (ids, changepoints, one float64 frame buffer with
offsets and widths). Every run of a detector over a dataset goes through
``alarm_columns``: the grid becomes detector levels once
(``detectors.detector_levels``), the dataset is scanned once for all of them
(``detectors.scan_table``), and the dataset's lengths and changepoints are
read as float columns. The result is the (lengths, nu, tau) triple the
metrics read, with tau a (sequences x thresholds) table of first alarms (inf
for no alarm). ``sweep`` computes every metric at every threshold from it
with one ``metrics._estimates`` call (one ARL and one ADD sample table for
all metrics), and the CLI's ``survival`` fits one column of it.
Sequences are never matched by id: ``ingest`` rejects a repeated id.

``ingest`` parses a regular data file once: it saves the parsed dataset's
columns and content hash in a sidecar ``.<name>.qcdeval-cache.npz`` beside
the file, keyed by the SHA-256 of the file's bytes, and loads them from there
while the bytes match. The sidecar never changes a result, a count or a
manifest.

Determinism contract: identical (dataset hash, detector config, grid) yield
byte-identical CSV: a sequence's first alarms do not depend on the other
sequences of the dataset. A detector that rejects a sequence (``ValueError``)
fails the whole run, naming the first such sequence in dataset order: a
crash is never counted as a censored run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import stat
import tempfile
import zipfile
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .detectors import DetectorConfig, detector_levels, scan_table
# Unused here, kept because qcdbench's traced runs wrap harness.run_detector.
from .detectors import run_detector  # noqa: F401
from .metrics import INF, DetectionOutcome, SequenceMeta, _changepoint_ok, _estimates
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
    if nu is not None and not math.isfinite(nu):
        raise ValueError(f"malformed record at line {line_no}: non-finite changepoint")
    return line_no, seq_id, values, INF if nu is None else nu


def _iter_jsonl(fh):
    for line_no, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed record at line {line_no}: {exc}") from None
        yield _parse_record(obj, line_no)


def _iter_csv(fh):
    """CSV layout: one sequence per row, ``id,nu,v0,v1,...`` with an empty
    nu field meaning no change."""
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


# The ingest cache: a sidecar ``.<name>.qcdeval-cache.npz`` beside a regular
# data file holds the columns of its parsed dataset and their content hash,
# keyed by this version, the format and the SHA-256 of the file's bytes.
_CACHE_VERSION = 2
_CACHE_SUFFIX = ".qcdeval-cache.npz"
_HASH_CHUNK = 1 << 20


def _cache_path(path) -> str:
    folder, name = os.path.split(os.fspath(path))
    return os.path.join(folder, f".{name}{_CACHE_SUFFIX}")


def _cache_key(fmt: str, digest: str) -> str:
    return f"qcdeval-ingest-cache/{_CACHE_VERSION} {fmt} {digest}"


class _HashingReader(io.RawIOBase):
    """A binary file that adds every byte read from it to ``digest``."""

    def __init__(self, raw, digest):
        self._raw, self._digest = raw, digest

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(buf)
        self._digest.update(memoryview(buf)[:n])
        return n

    def close(self):
        self._raw.close()
        super().close()


def _read_cache(cache: str, key: str):
    """The dataset held by the sidecar, with its stored content hash kept
    (``LabeledDataset.keep_hash``), or None when the sidecar is missing,
    unreadable or keyed to other bytes. Arrays the reader does not name are
    never read."""
    try:
        with open(cache, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # not a zip file, so not a sidecar
                return None
            fh.seek(0)
            with np.load(fh) as z:
                if z["key"].item() != key:
                    return None
                dataset = LabeledDataset(
                    ids=json.loads(z["ids"].tobytes()), nu=z["nu"], frames=z["frames"],
                    offsets=z["offsets"], widths=z["widths"])
                digest = str(z["hash"].item())
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    n = len(dataset.ids)
    if not dataset.nu.shape == dataset.widths.shape == (n,) == (dataset.offsets.size - 1,):
        return None
    dataset.keep_hash(digest)
    return dataset


def _write_cache(cache: str, key: str, dataset: LabeledDataset, mode: int) -> None:
    """Write the dataset's columns and content hash to the sidecar
    atomically, with the data file's read and write permissions ``mode``: a
    temporary file in its folder, then ``os.replace``. A failure leaves no
    file behind and is only logged. Ids are stored as JSON bytes, so a
    trailing NUL or a lone surrogate survives. The dataset keeps the hash
    (``LabeledDataset.keep_hash``), as one read from the sidecar does."""
    digest = dataset.content_hash()
    dataset.keep_hash(digest)
    folder, name = os.path.split(cache)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=folder or ".", prefix=name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, mode & 0o666)
            np.savez(fh, key=np.array(key), frames=dataset.frames, offsets=dataset.offsets,
                     widths=dataset.widths, nu=dataset.nu, hash=np.array(digest),
                     ids=np.frombuffer(json.dumps(dataset.ids).encode(), np.uint8))
        os.replace(tmp, cache)
    except OSError as exc:
        log.info("ingest cache not written: %s", exc)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _collect(records) -> LabeledDataset:
    """The dataset of the parsed records, in file order; a repeated id
    raises with its line number."""
    ids, values, nus, seen = [], [], [], set()
    for line_no, seq_id, vals, nu in records:
        if seq_id in seen:
            raise ValueError(f"malformed record at line {line_no}: duplicate id {seq_id!r}")
        seen.add(seq_id)
        ids.append(seq_id)
        values.append(vals)
        nus.append(nu)
    return LabeledDataset.from_sequences(ids, values, nus)


def _load(path, fmt: str) -> LabeledDataset:
    """Every record of the file: from its sidecar when the sidecar's key
    matches the file's bytes, else parsed, and then cached once every record
    has parsed. A file that is not a regular file (a FIFO, say) is parsed
    once and never cached."""
    parse, newline = (_iter_jsonl, None) if fmt == "jsonl" else (_iter_csv, "")
    mode = os.stat(path).st_mode
    if not stat.S_ISREG(mode):
        with open(path, newline=newline, encoding="utf-8") as fh:
            return _collect(parse(fh))
    cache = _cache_path(path)
    if os.path.exists(cache):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(_HASH_CHUNK):
                digest.update(chunk)
        dataset = _read_cache(cache, _cache_key(fmt, digest.hexdigest()))
        if dataset is not None:
            log.info("ingest cache hit: %s", cache)
            return dataset
    log.info("ingest cache miss: %s", cache)
    digest = hashlib.sha256()
    raw = _HashingReader(open(path, "rb", buffering=0), digest)
    with io.TextIOWrapper(io.BufferedReader(raw, _HASH_CHUNK), newline=newline,
                          encoding="utf-8") as fh:
        dataset = _collect(parse(fh))
    _write_cache(cache, _cache_key(fmt, digest.hexdigest()), dataset, mode)
    return dataset


def ingest(path, fmt: str = "jsonl", min_length: int = 2) -> LabeledDataset:
    """Load and validate a labeled dataset.

    Sequences shorter than ``min_length`` are dropped; records whose
    changepoint does not index an observed frame (nu >= T) are rejected.
    Both are counted in the report attached as ``dataset.ingest_report``.
    Structurally malformed records, records holding a NaN or infinite frame
    or changepoint, and a repeated id raise with their line number.

    The parsed dataset of a regular file is cached in a sidecar beside it
    with its content hash (see ``_load``); the filters above run on it either
    way, and copy it only when they remove a sequence. A dataset they leave
    whole keeps the stored hash, so ``content_hash`` does not hash it again.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {fmt}")
    dataset = _load(path, fmt)
    lengths = dataset.lengths
    keep = lengths >= min_length
    dropped = len(dataset) - int(np.count_nonzero(keep))
    # SequenceMeta's changepoint check on every kept row at once; only the
    # rows it flags build a SequenceMeta, for its diagnostic.
    nu = dataset.nu
    bad = keep & ~_changepoint_ok(nu, lengths)
    diagnostics = []
    for i in np.flatnonzero(bad).tolist():
        try:
            SequenceMeta(id=dataset.ids[i], length_T=int(lengths[i]),
                         changepoint_nu=float(nu[i]))
        except ValueError as exc:
            keep[i] = False
            diagnostics.append(str(exc))
    if not keep.all():
        dataset = LabeledDataset.from_sequences(
            compress(dataset.ids, keep), compress(dataset.values, keep), dataset.nu[keep])
    dataset.ingest_report = IngestReport(
        n_loaded=len(dataset),
        n_dropped_short=dropped,
        n_rejected=len(diagnostics),
        diagnostics=tuple(diagnostics),
    )
    for diag in diagnostics:
        log.warning("rejected record: %s", diag)
    if dropped:
        log.info("%d sequence(s) dropped below min_length=%d", dropped, min_length)
    return dataset


def alarm_columns(dataset: LabeledDataset, config: DetectorConfig, thresholds):
    """The (lengths, nu, tau) columns of the detector on the dataset, in
    dataset order: float lengths and changepoints (inf for no change), and a
    (sequences x thresholds) float table of first alarms (inf for no alarm),
    from one scan of the dataset (``config.threshold`` is not used)."""
    frames = scan_table(dataset, config, detector_levels(config, thresholds))
    return dataset.lengths.astype(np.float64), dataset.nu, np.where(frames < 0, INF, frames)


# Not called by the program; kept because qcdbench's traced runs wrap it.
def run_all(dataset: LabeledDataset, config: DetectorConfig, workers: int = 1):
    """Run the detector at ``config.threshold`` on every sequence, in dataset
    order. ``workers`` has no effect; it stays because the acceptance tests
    pass it."""
    tau = alarm_columns(dataset, config, [config.threshold])[2][:, 0]
    return [DetectionOutcome(i, t) for i, t in zip(dataset.ids, tau.tolist())]


def _t_max(lengths, nu) -> float:
    return float(np.max(np.minimum(nu, lengths), initial=0.0))


def sweep(
    dataset: LabeledDataset,
    config: DetectorConfig,
    thresholds,
    metrics,
    workers: int = 1,
) -> SweepResult:
    """Evaluate the requested metrics at every threshold of the grid, from one
    detector scan and one ``metrics._estimates`` call (``config.threshold``
    is not used). ``workers`` has no effect; it stays because the acceptance
    tests pass it."""
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("empty threshold grid")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    metrics = tuple(metrics)
    if not metrics:
        raise ValueError("no metrics requested")

    lengths, nu, taus = alarm_columns(dataset, config, thresholds)
    columns = _estimates(metrics, lengths, nu, taus)
    points = [
        CurvePoint(threshold=thr, estimates={name: columns[name][j] for name in metrics})
        for j, thr in enumerate(thresholds)
    ]
    return SweepResult(points, t_max=_t_max(lengths, nu))


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def emit_curve(result: SweepResult, out_path, fmt: str = "csv") -> None:
    """Write a sweep as CSV (one row per threshold x metric) or as an SVG
    tradeoff scatter (log-x ARL vs ADD, error bars, shaded region past the
    largest observable run length)."""
    if fmt == "csv":
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
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
        with open(out_path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
