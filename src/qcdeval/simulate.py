"""Synthetic labeled-sequence generation.

Datasets are lists of (values, changepoint, length) with Gaussian or Poisson
pre/post processes. Each sequence draws from its own counter-based random
stream derived from (seed, index), so generation is reproducible regardless
of iteration order or parallelism.

Persistence: JSONL with one object {"id", "values", "nu"} per line (nu null
for no change) plus an optional sidecar JSON with the generating spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .detectors import LikelihoodModel
from .metrics import INF, SequenceMeta

__all__ = [
    "SimSpec",
    "LabeledDataset",
    "simulate",
    "truncate",
    "save_jsonl",
    "load_jsonl",
]

_TRUNCATE_STREAM = 0x9E3779B97F4A7C15  # separates truncation draws from generation


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic dataset.

    length_law: ("fixed", T) or ("uniform", lo, hi), frames per sequence.
    changepoint_law: ("geometric", p) with support {0, 1, ...},
    ("uniform",) over {0, ..., T-1}, or ("none",).
    """

    model: LikelihoodModel
    n_sequences: int
    length_law: tuple
    changepoint_law: tuple = ("none",)
    with_change_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        _check_length_law(self.length_law)
        law = self.changepoint_law
        if law[0] == "geometric":
            if not 0.0 < law[1] <= 1.0:
                raise ValueError("geometric success probability must be in (0, 1]")
        elif law[0] not in ("uniform", "none"):
            raise ValueError(f"unknown changepoint law: {law[0]}")
        if not 0.0 <= self.with_change_fraction <= 1.0:
            raise ValueError("with_change_fraction must be in [0, 1]")
        if law[0] == "none" and self.with_change_fraction > 0:
            raise ValueError("changepoint law 'none' requires fraction 0")

    def to_json(self) -> dict:
        m = self.model
        model = {"kind": m.kind}
        if m.kind == "gaussian":
            model.update(mu0=m.mu0, mu1=m.mu1, var=m.var)
        else:
            model.update(lam0=m.lam0, lam1=m.lam1)
        return {
            "model": model,
            "n_sequences": self.n_sequences,
            "length_law": list(self.length_law),
            "changepoint_law": list(self.changepoint_law),
            "with_change_fraction": self.with_change_fraction,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "SimSpec":
        try:
            m = obj["model"]
            model = LikelihoodModel(
                kind=m["kind"],
                mu0=m.get("mu0", 0.0),
                mu1=m.get("mu1", 0.0),
                var=m.get("var", 1.0),
                lam0=m.get("lam0", 1.0),
                lam1=m.get("lam1", 1.0),
            )
            return SimSpec(
                model=model,
                n_sequences=int(obj["n_sequences"]),
                length_law=tuple(obj["length_law"]),
                changepoint_law=tuple(obj.get("changepoint_law", ["none"])),
                with_change_fraction=float(obj.get("with_change_fraction", 0.0)),
                seed=int(obj.get("seed", 0)),
            )
        except KeyError as exc:
            raise ValueError(f"simulation spec is missing key {exc}") from None
        except (AttributeError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed simulation spec: {exc}") from None


def _check_length_law(law):
    if law[0] == "fixed":
        if law[1] < 1:
            raise ValueError("fixed length must be >= 1")
    elif law[0] == "uniform":
        if not 1 <= law[1] <= law[2]:
            raise ValueError("uniform length range needs 1 <= lo <= hi")
    else:
        raise ValueError(f"unknown length law: {law[0]}")


@dataclass
class LabeledDataset:
    metas: list[SequenceMeta]
    values: list[np.ndarray]
    provenance: object = None
    clamped_truncations: int = 0

    def __len__(self):
        return len(self.metas)

    def content_hash(self) -> str:
        """SHA-256 over each sequence's id, changepoint and shape (as a JSON
        header) followed by its frames as little-endian float64 bytes."""
        h = hashlib.sha256()
        for meta, vals in zip(self.metas, self.values):
            arr = np.asarray(vals, dtype="<f8")
            header = [meta.id, float(meta.changepoint_nu), list(arr.shape)]
            h.update(json.dumps(header).encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def _seq_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(stream)
    # Counter word 2 holds the jump count: the state of Philox(key).jumped(index).
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, index, 0]))


def _draw_length(rng, law) -> int:
    if law[0] == "fixed":
        return int(law[1])
    return int(rng.integers(law[1], law[2] + 1))


def _draw_frames(rng, model: LikelihoodModel, length: int, nu: float) -> np.ndarray:
    n_pre = length if nu == INF else min(int(nu), length)
    if model.kind == "gaussian":
        x = rng.normal(model.mu0, math.sqrt(model.var), size=length)
        if n_pre < length:
            x[n_pre:] = rng.normal(model.mu1, math.sqrt(model.var), size=length - n_pre)
    else:
        x = rng.poisson(model.lam0, size=length).astype(np.float64)
        if n_pre < length:
            x[n_pre:] = rng.poisson(model.lam1, size=length - n_pre)
    return x


def simulate(spec: SimSpec) -> LabeledDataset:
    """Generate a dataset per the spec.

    A drawn changepoint at or beyond the sequence end is unobservable and is
    recorded as "no change".
    """
    metas = []
    values = []
    for i in range(spec.n_sequences):
        rng = _seq_rng(spec.seed, i)
        length = _draw_length(rng, spec.length_law)
        nu = INF
        if spec.with_change_fraction > 0 and rng.random() < spec.with_change_fraction:
            law = spec.changepoint_law
            if law[0] == "geometric":
                nu = float(rng.geometric(law[1]) - 1)  # support {0, 1, ...}
            else:
                nu = float(rng.integers(0, length))
            if nu >= length:
                nu = INF
        metas.append(SequenceMeta(id=f"seq{i:06d}", length_T=length, changepoint_nu=nu))
        values.append(_draw_frames(rng, spec.model, length, nu))
    return LabeledDataset(metas=metas, values=values, provenance=spec)


def truncate(dataset: LabeledDataset, length_law, seed: int = 0) -> LabeledDataset:
    """Randomly re-truncate each sequence to an independently drawn length.

    Draws exceeding the original length are clamped (and counted); a
    changepoint cut off by truncation becomes "no change".
    """
    _check_length_law(length_law)
    metas = []
    values = []
    clamped = 0
    for i, (meta, vals) in enumerate(zip(dataset.metas, dataset.values)):
        rng = _seq_rng(seed, i, stream=_TRUNCATE_STREAM)
        new_len = _draw_length(rng, length_law)
        if new_len > meta.length_T:
            new_len = meta.length_T
            clamped += 1
        nu = meta.changepoint_nu
        if nu >= new_len:
            nu = INF
        metas.append(SequenceMeta(id=meta.id, length_T=new_len, changepoint_nu=nu))
        values.append(vals[:new_len])
    return LabeledDataset(
        metas=metas,
        values=values,
        provenance=dataset.provenance,
        clamped_truncations=clamped,
    )


def _jsonl_lines(dataset: LabeledDataset):
    for meta, vals in zip(dataset.metas, dataset.values):
        arr = np.asarray(vals)
        obj = {
            "id": meta.id,
            "values": arr.tolist(),
            "nu": None if meta.changepoint_nu == INF else int(meta.changepoint_nu),
        }
        yield json.dumps(obj, separators=(",", ":"))


def save_jsonl(dataset: LabeledDataset, path, sidecar: bool = True) -> None:
    with open(path, "w") as fh:
        for line in _jsonl_lines(dataset):
            fh.write(line)
            fh.write("\n")
    if sidecar and isinstance(dataset.provenance, SimSpec):
        with open(f"{path}.meta.json", "w") as fh:
            json.dump(dataset.provenance.to_json(), fh, indent=2)
            fh.write("\n")


def load_jsonl(path) -> LabeledDataset:
    """Raw load without validation or filtering; see harness.ingest for the
    validated ingestion path."""
    from .harness import ingest

    return ingest(path, fmt="jsonl", min_length=1)
