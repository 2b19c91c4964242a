"""Spans around qcdeval's layer boundaries, recorded from outside the program.

A traced operation temporarily replaces public functions at the names their
callers look them up by (``qcdeval.cli.sweep``, ``qcdeval.harness.run_detector``,
``qcdeval.metrics.fit_km``, ``LikelihoodModel.llr`` ...) with wrappers that
record a span: name, start, end, parent and a few counts. Spans stay in
memory and are reduced to per-layer numbers after the operation.

A span's parent is the innermost open span on its own thread. Spans opened
on a worker thread with nothing open there (``run_detector`` under the CLI's
thread pool) take the innermost open span of the main thread, which is the
``run_all`` blocked on the pool: they are attributed by interval. Self time
is a span's duration minus the union of its children's intervals, so
overlapping pool spans are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict

import qcdeval._kernels
import qcdeval.cli
import qcdeval.harness
import qcdeval.metrics
import qcdeval.oracle
import qcdeval.simulate
from qcdeval.detectors import LikelihoodModel


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "counts")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stacks = defaultdict(list)
        self._main = threading.get_ident()

    def begin(self, name) -> Span:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks[self._main]
            parent = main[-1] if main else None
        span = Span(name, parent, thread)
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()


def _frames(args, kwargs, result):
    return {"frames": len(args[0])}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


# (owner, attribute, span name, counts from (args, kwargs, result)).
def _targets():
    cli, harness, metrics = qcdeval.cli, qcdeval.harness, qcdeval.metrics
    oracle, sim, kernels = qcdeval.oracle, qcdeval.simulate, qcdeval._kernels
    return [
        (cli, "main", "cli.main", None),
        (cli, "ingest", "harness.ingest",
         lambda a, k, r: {"records": len(r), "bytes": os.path.getsize(a[0])}),
        (cli, "sweep", "harness.sweep", None),
        (cli, "run_all", "harness.run_all", None),
        (harness, "run_all", "harness.run_all", None),
        (cli, "emit_curve", "harness.emit_curve", None),
        (harness, "run_detector", "detectors.run_detector", _frames),
        (LikelihoodModel, "llr", "detectors.llr", None),
        (kernels, "gsr_first_alarm", "kernels.first_alarm", _frames),
        (kernels, "cusum_first_alarm", "kernels.first_alarm", _frames),
        (kernels, "ewma_first_alarm", "kernels.first_alarm", _frames),
        (cli, "compute_metric", "metrics.compute_metric", None),
        (harness, "compute_metric", "metrics.compute_metric", None),
        (metrics, "arl_samples", "metrics.arl_samples", _samples),
        (metrics, "add_samples", "metrics.add_samples", _samples),
        (metrics, "fit_km", "survival.fit_km",
         lambda a, k, r: {"samples": len(a[0]), "drops": int(r.drop_times.size)}),
        (metrics, "rmst", "survival.rmst", None),
        (sim.LabeledDataset, "content_hash", "simulate.content_hash", None),
        (sim, "simulate", "simulate.simulate", None),
        (sim, "save_jsonl", "simulate.save_jsonl", None),
        (oracle, "true_arl_mc", "oracle.true_arl_mc",
         lambda a, k, r: {"reps": r.n_reps}),
        (oracle, "true_add_mc", "oracle.true_add_mc",
         lambda a, k, r: {"reps": r.n_reps, "retained": r.retention_fraction * r.n_reps}),
        (oracle, "bias_bounds", "oracle.bias_bounds",
         lambda a, k, r: {"reps": k["mc_reps"]}),
        (oracle, "rmst_km_batch", "survival.rmst_km_batch",
         lambda a, k, r: {"rows": len(a[0])}),
    ]


def _wrap(tracer: Tracer, fn, name, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def reduce_spans(spans, wall: float) -> dict:
    """Per span name: total seconds ``s``, ``self_s``, ``calls`` and summed
    counts; plus ``accounted`` = wall-attributed self time over ``wall``.

    Wall attribution scales each group of worker-thread children of one span
    by (union of their intervals) / (sum of their durations), so that the
    self times of all spans add up to the time the spans cover.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)
    out = defaultdict(lambda: defaultdict(float))
    weight, share = {}, {}
    accounted = 0.0
    for sp in spans:  # parents are recorded before their children
        kids = children.get(id(sp), ())
        covered = _union_length([(k.start, k.end) for k in kids], sp.start, sp.end)
        self_s = (sp.end - sp.start) - covered
        pool = [(k.start, k.end) for k in kids if k.thread != sp.thread]
        busy = sum(b - a for a, b in pool)
        share[id(sp)] = _union_length(pool, sp.start, sp.end) / busy if busy else 1.0
        w = 1.0
        if sp.parent is not None:
            w = weight[id(sp.parent)]
            if sp.thread != sp.parent.thread:
                w *= share[id(sp.parent)]
        weight[id(sp)] = w
        accounted += w * self_s
        agg = out[sp.name]
        agg["s"] += sp.end - sp.start
        agg["self_s"] += self_s
        agg["calls"] += 1
        for key, value in (sp.counts or {}).items():
            agg[key] += value
    result = {name: dict(agg) for name, agg in out.items()}
    result["trace"] = {"accounted": accounted / wall if wall else 0.0}
    return result


def layer_value(reduced: dict, name: str) -> float:
    """One per-layer metric from a span reduction: ``<span name>.<field>``
    (``s``, ``self_s``, ``calls`` or a count), or one of the derived names
    below. Layers the operation never entered read 0."""

    def get(span, field):
        return reduced.get(span, {}).get(field, 0.0)

    if name == "metrics.samples":
        return get("metrics.arl_samples", "samples") + get("metrics.add_samples", "samples")
    if name == "kernels.first_alarm.bytes_computed":
        return 8.0 * get("kernels.first_alarm", "frames")  # float64 statistic per frame
    if name == "kernels.first_alarm.frames_per_s":
        busy = get("kernels.first_alarm", "s")
        return get("kernels.first_alarm", "frames") / busy if busy else 0.0
    if name == "oracle.mc_reps":
        return sum(get(f"oracle.{fn}", "reps") for fn in ("true_arl_mc", "true_add_mc", "bias_bounds"))
    if name == "oracle.retention_base":
        return get("oracle.true_add_mc", "reps")
    if name == "oracle.retention":
        base = get("oracle.true_add_mc", "reps")
        return get("oracle.true_add_mc", "retained") / base if base else 0.0
    span, field = name.rsplit(".", 1)
    return get(span, field)
