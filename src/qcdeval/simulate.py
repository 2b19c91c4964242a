"""Synthetic labeled-sequence generation.

A dataset is a set of flat columns, one entry per sequence: ids,
changepoints and the frames of all sequences as one float64 buffer with
offsets and widths. The sequences have Gaussian or Poisson pre/post
processes. Each sequence draws from its own counter-based random stream
derived from (seed, index), so generation is reproducible regardless of
iteration order or parallelism.

Persistence: JSONL with one object {"id", "values", "nu"} per line (nu null
for no change) plus an optional sidecar JSON with the generating spec.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .detectors import LikelihoodModel
from .metrics import INF, SequenceMeta

__all__ = [
    "SimSpec",
    "LabeledDataset",
    "simulate",
    "truncate",
    "save_jsonl",
]

_TRUNCATE_STREAM = 0x9E3779B97F4A7C15  # separates truncation draws from generation


def _is_int(x) -> bool:
    """Whether ``x`` is an integer; a bool is not one: True would read as 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _checked_seed(seed):
    """``seed``, if it is an integer in [0, 2**64): one uint64 key, which
    no other seed shares."""
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic dataset.

    length_law: ("fixed", T) or ("uniform", lo, hi), frames per sequence.
    changepoint_law: ("geometric", p) with support {0, 1, ...},
    ("uniform",) over {0, ..., T-1}, or ("none",).
    seed: an integer in [0, 2**64), the key of every sequence's stream.
    """

    model: LikelihoodModel
    n_sequences: int
    length_law: tuple
    changepoint_law: tuple = ("none",)
    with_change_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.n_sequences) and self.n_sequences >= 1):
            raise ValueError(f"n_sequences must be an integer >= 1, got {self.n_sequences!r}")
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
        _checked_seed(self.seed)

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
                n_sequences=obj["n_sequences"],
                length_law=tuple(obj["length_law"]),
                changepoint_law=tuple(obj.get("changepoint_law", ["none"])),
                with_change_fraction=float(obj.get("with_change_fraction", 0.0)),
                seed=obj.get("seed", 0),
            )
        except KeyError as exc:
            raise ValueError(f"simulation spec is missing key {exc}") from None
        except (AttributeError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed simulation spec: {exc}") from None


def _check_length_law(law):
    """("fixed", T) or ("uniform", lo, hi), in whole frames with 1 <= lo <= hi."""
    if law[0] not in ("fixed", "uniform"):
        raise ValueError(f"unknown length law: {law[0]}")
    lo, hi = law[1], law[1 if law[0] == "fixed" else 2]
    # float(x).is_integer() is False for 2.5, inf and NaN.
    if not (float(lo).is_integer() and float(hi).is_integer() and 1 <= lo <= hi):
        raise ValueError(f"length law {tuple(law)!r} needs whole lengths 1 <= lo <= hi")


@dataclass
class LabeledDataset:
    """Labeled sequences as flat columns, in dataset order.

    Sequence i has id ``ids[i]``, changepoint ``nu[i]`` (inf for no change)
    and frames ``frames[offsets[i]:offsets[i + 1]]``: 1-D where
    ``widths[i]`` is 0, otherwise that many columns per frame. Build one
    from per-sequence pieces with ``from_sequences``.
    """

    ids: list[str]
    nu: np.ndarray
    frames: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray
    provenance: object = None
    clamped_truncations: int = 0
    # (digest, ids, nu, frames, offsets, widths) from keep_hash, or None.
    _kept_hash: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_sequences(cls, ids, values, nu, **fields) -> "LabeledDataset":
        """The dataset of these ids, frame arrays (1-D, or 2-D with one row
        per frame) and changepoints; ``fields`` are the other fields."""
        values = list(values)
        return cls(list(ids), np.array(nu, dtype=np.float64),
                   np.concatenate([*values, np.empty(0)], axis=None),
                   np.cumsum([0, *(v.size for v in values)], dtype=np.int64),
                   np.array([v.shape[1] if v.ndim == 2 else 0 for v in values], dtype=np.int64),
                   **fields)

    def __len__(self):
        return len(self.ids)

    @property
    def lengths(self) -> np.ndarray:
        """Frames per sequence."""
        return np.diff(self.offsets) // np.maximum(self.widths, 1)

    @property
    def values(self) -> list[np.ndarray]:
        """Each sequence's frames, as views into ``frames``."""
        bounds = self.offsets.tolist()
        return [self.frames[a:b] if w == 0 else self.frames[a:b].reshape(-1, w)
                for a, b, w in zip(bounds, bounds[1:], self.widths.tolist())]

    @property
    def metas(self) -> list[SequenceMeta]:
        """Each sequence's labels, as ``SequenceMeta`` objects."""
        return [SequenceMeta(id=i, length_T=t, changepoint_nu=nu)
                for i, t, nu in zip(self.ids, self.lengths.tolist(), self.nu.tolist())]

    def content_hash(self) -> str:
        """SHA-256 over each sequence's id, changepoint and shape (as a JSON
        header) followed by its frames as little-endian float64 bytes.

        A digest given to ``keep_hash`` is returned instead, as long as the
        dataset holds the very columns it was kept with."""
        kept = self._kept_hash
        if kept is not None and all(a is b for a, b in zip(kept[1:], self._hashed_columns())):
            return kept[0]
        h = hashlib.sha256()
        for seq_id, nu, vals in zip(self.ids, self.nu.tolist(), self.values):
            h.update(json.dumps([seq_id, nu, list(vals.shape)]).encode())
            h.update(vals.astype("<f8", copy=False))  # a view: no copy
        return h.hexdigest()

    def keep_hash(self, digest: str) -> None:
        """Keep ``digest``, this dataset's ``content_hash``, for later calls.
        The hashed columns become read-only (ids a tuple), so the digest
        cannot outlive a change to them."""
        self.ids = tuple(self.ids)
        for column in self._hashed_columns()[1:]:
            column.flags.writeable = False
        self._kept_hash = (digest, *self._hashed_columns())

    def _hashed_columns(self) -> tuple:
        return self.ids, self.nu, self.frames, self.offsets, self.widths


def _seq_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(stream)
    # Counter word 2 holds the jump count: the state of Philox(key).jumped(index).
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, index, 0]))


def _draw_length(rng, law) -> int:
    if law[0] == "fixed":
        return int(law[1])
    return int(rng.integers(int(law[1]), int(law[2]) + 1))


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
    values, nus = [], []
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
        nus.append(nu)
        values.append(_draw_frames(rng, spec.model, length, nu))
    ids = (f"seq{i:06d}" for i in range(spec.n_sequences))
    return LabeledDataset.from_sequences(ids, values, nus, provenance=spec)


def truncate(dataset: LabeledDataset, length_law, seed: int = 0) -> LabeledDataset:
    """Randomly re-truncate each sequence to an independently drawn length.

    Draws exceeding the original length are clamped (and counted); a
    changepoint cut off by truncation becomes "no change".
    """
    _check_length_law(length_law)
    _checked_seed(seed)
    draws = np.array([_draw_length(_seq_rng(seed, i, stream=_TRUNCATE_STREAM), length_law)
                      for i in range(len(dataset))], dtype=np.int64)
    lengths = np.minimum(draws, dataset.lengths)
    return LabeledDataset.from_sequences(
        dataset.ids,
        [v[:n] for v, n in zip(dataset.values, lengths.tolist())],
        np.where(dataset.nu >= lengths, INF, dataset.nu),
        provenance=dataset.provenance,
        clamped_truncations=int(np.count_nonzero(draws > lengths)),
    )


def save_jsonl(dataset: LabeledDataset, path, sidecar: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq_id, vals, nu in zip(dataset.ids, dataset.values, dataset.nu.tolist()):
            obj = {"id": seq_id, "values": vals.tolist(), "nu": None if nu == INF else int(nu)}
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")
    if sidecar and isinstance(dataset.provenance, SimSpec):
        with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(dataset.provenance.to_json(), fh, indent=2)
            fh.write("\n")
