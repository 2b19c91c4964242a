"""Command-line interface.

Subcommands: simulate, evaluate, curve, survival, oracle, verify-bounds.
Exit codes: 0 success, 2 validation/usage error (``CliError``, ``OSError`` or
``ValueError``, mapped in ``main``), 3 verification failure.
Every run writes a manifest JSON after its result files, so a run that fails
leaves neither. The dataset commands (``evaluate``, ``curve``, ``survival``)
share their flags (``_dataset_parser``) and check every flag, the detector
config included, before ``_load`` reads the data, so a bad flag exits 2
before the data file is parsed or its ingest sidecar written. ``evaluate`` is
a one-threshold ``sweep``, and ``survival`` fits one alarm column of
``harness.alarm_columns``, which ``sweep`` reads.
``-v``/``--log-level LEVEL`` sends qcdeval's log records (the ingest-cache
hit or miss, dropped and rejected sequences) at that level and above to
stderr for the run; without it, logging is left as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import sys

import numpy as np

from .detectors import DETECTOR_KINDS, DetectorConfig, LikelihoodModel
from .harness import alarm_columns, emit_curve, ingest, sweep, write_manifest
# Not called here, kept because qcdbench's traced runs wrap cli.run_all.
from .harness import run_all  # noqa: F401
from .metrics import METRIC_NAMES, add_columns, arl_columns
# Not called here, kept because qcdbench's traced runs wrap cli.compute_metric.
from .metrics import compute_metric  # noqa: F401
from .oracle import Dist, bias_bounds, true_arl_mc
from .simulate import SimSpec, save_jsonl, simulate
from .survival import fit_km_arrays

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3


class CliError(Exception):
    """Input/validation problem; maps to exit code 2."""


def parse_model(text: str) -> LikelihoodModel:
    """"gaussian:mu0,mu1,var" or "poisson:lam0,lam1"."""
    kind, _, rest = text.partition(":")
    try:
        params = [float(p) for p in rest.split(",")]
        if kind == "gaussian":
            mu0, mu1, var = params
            return LikelihoodModel(kind="gaussian", mu0=mu0, mu1=mu1, var=var)
        if kind == "poisson":
            lam0, lam1 = params
            return LikelihoodModel(kind="poisson", lam0=lam0, lam1=lam1)
    except ValueError as exc:
        raise CliError(f"bad model spec {text!r}: {exc}") from None
    raise CliError(f"unknown model kind: {kind!r}")


def parse_thresholds(text: str) -> list[float]:
    """"start:stop:num-log" (geometric) or "start:stop:num-lin" (arithmetic)
    or a comma-separated explicit list; the grid must be NaN-free and
    strictly increasing, as ``harness.sweep`` requires."""
    if ":" not in text:
        try:
            grid = [float(v) for v in text.split(",") if v]
        except ValueError as exc:
            raise CliError(f"bad threshold grid {text!r}: {exc}") from None
    else:
        try:
            start_s, stop_s, num_s = text.split(":")
            start, stop = float(start_s), float(stop_s)
            num_s, _, scale = num_s.partition("-")
            num = int(num_s)
            scale = scale or "log"
        except ValueError as exc:
            raise CliError(f"bad threshold grid {text!r}: {exc}") from None
        if num < 1:
            raise CliError("empty threshold grid")
        if scale == "log":
            if start <= 0:
                raise CliError("log grid requires start > 0")
            grid = np.geomspace(start, stop, num).tolist()
        elif scale == "lin":
            grid = np.linspace(start, stop, num).tolist()
        else:
            raise CliError(f"unknown grid scale: {scale!r}")
    if not grid:
        raise CliError("empty threshold grid")
    if np.isnan(grid).any():
        raise CliError("threshold grid must not contain NaN")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise CliError(f"thresholds must be strictly increasing: {text!r}")
    return grid


def parse_family_pair(text: str) -> tuple[Dist, Dist]:
    """"exp:1,unif:0,2" -> (event distribution, censoring distribution).

    Families take one (exp) or two (unif) numeric parameters; the split
    point is the comma preceding the second family name.
    """
    tokens = text.split(",")
    heads = [i for i, tok in enumerate(tokens) if ":" in tok]
    if len(heads) != 2 or heads[0] != 0:
        raise CliError(f"bad family pair {text!r}; expected e.g. exp:1,unif:0,2")
    try:
        event = Dist.parse(",".join(tokens[: heads[1]]))
        censor = Dist.parse(",".join(tokens[heads[1] :]))
    except ValueError as exc:
        raise CliError(f"bad family pair {text!r}: {exc}") from None
    return event, censor


def _detector_config(args) -> DetectorConfig:
    # DetectorConfig requires a model for gsr and cusum and refuses one for
    # the other detectors.
    return DetectorConfig(
        kind=args.detector,
        threshold=getattr(args, "threshold", None),  # curve sweeps a grid instead
        model=None if args.model is None else parse_model(args.model),
        omega=args.omega,
        ewma_lambda=args.ewma_lambda,
        window_size=args.window_size,
        burn_in=args.burn_in,
    )


def _load(args):
    """The detector config and the dataset of a dataset command, in that
    order; the command checks its other flags before it calls this."""
    config = _detector_config(args)
    fmt = "csv" if str(args.data).endswith(".csv") else "jsonl"
    return config, ingest(args.data, fmt=fmt, min_length=args.min_length)


def _add_detector_flags(p):
    p.add_argument("--detector", required=True, choices=DETECTOR_KINDS)
    p.add_argument("--model", help="gaussian:mu0,mu1,var or poisson:lam0,lam1")
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--ewma-lambda", dest="ewma_lambda", type=float, default=0.2)
    p.add_argument("--window-size", dest="window_size", type=int, default=30)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=30)


def _add_common(p, seeded=False):
    if seeded:
        # None means "not given": simulate then defers to the seed in the
        # spec file; oracle and verify-bounds fall back to 0.
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manifest", default=None, help="manifest path (default <out>.manifest.json)")
    p.add_argument("-v", "--log-level", dest="log_level", nargs="?", const="info", default=None,
                   choices=("debug", "info", "warning", "error"),
                   help="log records at this level and above to stderr (-v alone: info)")


@contextlib.contextmanager
def _logging(level):
    """Send the ``qcdeval`` loggers' records at ``level`` and above to
    stderr while the block runs; None leaves logging as it is."""
    if level is None:
        yield
        return
    logger = logging.getLogger("qcdeval")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def _manifest_path(args):
    return args.manifest or f"{args.out}.manifest.json"


def _run_manifest(args, config: DetectorConfig, dataset=None, **keys):
    """Write the manifest of a detector command: its own ``keys``, the full
    detector config and, where a dataset was loaded, its hash and ingest
    counts."""
    body = {"detector": config.kind, **keys,
            "detector_config": dataclasses.asdict(config)}
    dataset_hash = None
    if dataset is not None:
        report = dataset.ingest_report
        body["ingest"] = {"n_loaded": report.n_loaded,
                          "n_dropped_short": report.n_dropped_short,
                          "n_rejected": report.n_rejected}
        dataset_hash = dataset.content_hash()
    write_manifest(_manifest_path(args), command=args.command, config=body,
                   seed=args.seed, dataset_hash=dataset_hash)


def cmd_simulate(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = SimSpec.from_json(json.load(fh))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    dataset = simulate(spec)
    save_jsonl(dataset, args.out)
    write_manifest(_manifest_path(args), command="simulate", config=spec.to_json(),
                   seed=spec.seed)
    print(f"wrote {len(dataset)} sequences to {args.out}")
    return EXIT_OK


def _metrics(args) -> list[str]:
    metrics = [m for m in args.metrics.split(",") if m]
    if not metrics or set(metrics) - set(METRIC_NAMES):
        raise CliError(f"bad metric list {args.metrics!r}")
    return metrics


def cmd_evaluate(args) -> int:
    metrics = _metrics(args)
    config, dataset = _load(args)
    point = sweep(dataset, config, [args.threshold], metrics).points[0]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({name: est.to_json() for name, est in point.estimates.items()},
                  fh, indent=2)
        fh.write("\n")
    _run_manifest(args, config, dataset, threshold=args.threshold, metrics=metrics)
    print(f"wrote metrics for {len(dataset)} sequences to {args.out}")
    return EXIT_OK


def cmd_curve(args) -> int:
    grid, metrics = parse_thresholds(args.thresholds), _metrics(args)
    config, dataset = _load(args)
    result = sweep(dataset, config, grid, metrics)
    emit_curve(result, args.out, fmt="csv")
    if args.svg:
        emit_curve(result, args.svg, fmt="svg")
    _run_manifest(args, config, dataset, thresholds=grid, metrics=metrics)
    print(f"wrote {len(grid)}-point curve to {args.out}")
    return EXIT_OK


def cmd_survival(args) -> int:
    config, dataset = _load(args)
    lengths, nu, tau = alarm_columns(dataset, config, [args.threshold])
    rule = arl_columns if args.kind == "arl" else add_columns
    times, events = rule(lengths, nu, tau[:, 0])
    if not times.size:
        raise CliError(f"no {args.kind} samples in this dataset")
    fit_km_arrays(times, events).to_csv(args.out)
    _run_manifest(args, config, dataset, threshold=args.threshold, kind=args.kind)
    print(f"wrote {args.kind} survival curve ({times.size} samples) to {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _detector_config(args)
    try:
        est = true_arl_mc(
            config.model, config, n_reps=args.reps, horizon_cap=args.horizon_cap,
            seed=args.seed,
        )
    except RuntimeError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "true_arl": est.value,
        "sem": est.sem,
        "n_reps": est.n_reps,
        "cap_fraction": est.cap_fraction,
    }
    line = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line)
        _run_manifest(args, config, model=args.model, threshold=args.threshold,
                      reps=args.reps)
    sys.stdout.write(line)
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    event, censor = parse_family_pair(args.family)
    ns = []
    for item in args.n.split(","):
        try:
            ns.append(int(item))
        except ValueError:
            raise CliError(f"bad --n item {item!r} in {args.n!r}: "
                           "expected comma-separated integers") from None
    reports = []
    all_contained = True
    for n in ns:
        try:
            rep = bias_bounds(
                event, censor, n=n, a=args.a, mc_reps=args.reps, seed=args.seed
            )
        except RuntimeError as exc:
            raise CliError(str(exc)) from None
        reports.append(rep)
        all_contained &= rep.contained
        print(
            f"n={n:4d} a={args.a}: bounds [{rep.lower:.6g}, {rep.upper:.6g}] "
            f"mc_bias={rep.mc_bias:.6g} (+/-{rep.mc_ci_halfwidth:.2g}) "
            f"{'contained' if rep.contained else 'VIOLATED'}"
        )
    if args.out:
        fields = ("n", "a", "lower", "upper", "mc_bias", "mc_ci_halfwidth", "contained")
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows([getattr(r, k) for k in fields] for r in reports)
        write_manifest(_manifest_path(args), command="verify-bounds", seed=args.seed,
                       config={"family": args.family, "n": ns, "a": args.a, "reps": args.reps})
    print("all contained" if all_contained else "containment VIOLATED")
    return EXIT_OK if all_contained else EXIT_VERIFICATION


def _dataset_parser(sub, name, summary, func):
    """A subcommand that reads a dataset: its data and output paths,
    ``--min-length``, the detector and common flags. The caller adds the
    command's own flags."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-length", dest="min_length", type=int, default=2)
    _add_detector_flags(p)
    _add_common(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdeval",
        description="Evaluate changepoint detectors with censoring-aware "
        "run-length and delay estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled dataset from a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_simulate)

    p = _dataset_parser(sub, "evaluate", "metrics at a single threshold", cmd_evaluate)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--metrics", default=",".join(METRIC_NAMES))

    p = _dataset_parser(sub, "curve", "threshold sweep to a tradeoff curve", cmd_curve)
    p.add_argument("--svg", default=None)
    p.add_argument("--thresholds", required=True, help="start:stop:num-log")
    p.add_argument("--metrics", default=",".join(METRIC_NAMES))

    p = _dataset_parser(sub, "survival", "export a fitted survival curve", cmd_survival)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--kind", choices=("arl", "add"), default="arl")

    p = sub.add_parser("oracle", help="Monte-Carlo ground-truth run length")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--horizon-cap", dest="horizon_cap", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    _add_detector_flags(p)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "verify-bounds", help="quadrature bias bounds vs Monte-Carlo bias"
    )
    p.add_argument("--family", required=True, help="e.g. exp:1,unif:0,2")
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--out", default=None)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    # Commands that draw nothing take no --seed; their manifests record 0.
    if getattr(args, "seed", None) is None and args.command != "simulate":
        args.seed = 0
    try:
        with _logging(args.log_level):
            return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
