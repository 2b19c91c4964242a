"""The numpy scan kernels against per-frame reference recursions.

The references step the detector recursions one frame at a time and alarm
under the kernels' tie policy (GSR and CUSUM within 1e-12 of the threshold).
Thresholds set to a reference statistic's own value make every case an exact
tie, which the kernels must resolve the same way at every sequence length.
"""

import functools
import math

import numpy as np
import pytest

from qcdeval import _kernels
from qcdeval.detectors import LikelihoodModel

SLACK = 1e-12

MODELS = {
    "poisson1-3": LikelihoodModel(kind="poisson", lam0=1.0, lam1=3.0),
    "gauss0-1": LikelihoodModel(kind="gaussian", mu0=0.0, mu1=1.0, var=1.0),
    "gauss0-3": LikelihoodModel(kind="gaussian", mu0=0.0, mu1=3.0, var=1.0),
}


def gsr_path(llr, omega):
    """log R(t) of R(t) = (R(t-1) + 1) L(t), R(-1) = omega, frame by frame."""
    log_r = math.log(omega) if omega > 0 else -math.inf
    out = np.empty(len(llr))
    for t, v in enumerate(llr):
        # log R <- logaddexp(log R, 0) + llr[t]
        if log_r > 0.0:
            log_r = log_r + math.log1p(math.exp(-log_r))
        else:
            log_r = math.log1p(math.exp(log_r))
        log_r += v
        out[t] = log_r
    return out


def cusum_path(llr):
    """W(t) = max(0, W(t-1) + llr_t), W(-1) = 0, frame by frame."""
    w = 0.0
    out = np.empty(len(llr))
    for t, v in enumerate(llr):
        w += v
        if w < 0.0:
            w = 0.0
        out[t] = w
    return out


def ewma_reference(x, lam, threshold, burn_in, mu0, sigma0):
    n = len(x)
    d = 0.0
    decay, decay_pow = (1.0 - lam) ** 2, 1.0
    for t in range(n):
        d = lam * (x[t] - mu0) + (1.0 - lam) * d
        decay_pow *= decay
        if t >= burn_in:
            width = sigma0 * math.sqrt(lam / (2.0 - lam) * (1.0 - decay_pow))
            if abs(d) >= threshold * width:
                return t
    return -1


def first_at_or_above(path, level):
    hits = np.nonzero(path >= level - SLACK)[0]
    return int(hits[0]) if hits.size else -1


def frames(model, n, rng):
    """Pre-change frames, then 40 post-change ones: the statistics peak in
    the last block, after a long pre-change stretch."""
    if model.kind == "poisson":
        pre, post = rng.poisson(model.lam0, n - 40), rng.poisson(model.lam1, 40)
    else:
        sd = math.sqrt(model.var)
        pre, post = rng.normal(model.mu0, sd, n - 40), rng.normal(model.mu1, sd, 40)
    return np.concatenate([pre, post]).astype(float)


CASES = [
    (kind, model, n)
    for kind in ("gsr", "gsr-omega", "cusum")
    for model in MODELS
    for n in (300, 20_000, 100_000)
]


@pytest.mark.parametrize("kind,model,n", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_exact_tie_at_late_maximum(kind, model, n):
    rng = np.random.default_rng(CASES.index((kind, model, n)))
    model = MODELS[model]
    llr = model.llr(frames(model, n, rng))
    if kind == "cusum":
        path = cusum_path(llr)
        run = functools.partial(_kernels.cusum_first_alarm, llr)
    else:
        omega = 2.5 if kind == "gsr-omega" else 0.0
        path = gsr_path(llr, omega)
        run = functools.partial(_kernels.gsr_first_alarm, llr, omega=omega)
    peak = float(path.max())
    want = first_at_or_above(path, peak)
    assert want >= n - 40
    assert run([peak]).tolist() == [want]
    assert run([peak + 1.0]).tolist() == [-1]


def test_cusum_tie_needs_slack():
    # Recursion: 0.7 + 0.2 = 0.8999999999999999, one ulp below 0.9.
    assert cusum_path([-0.1, 0.7, 0.2])[2] < 0.9
    assert _kernels.cusum_first_alarm([-0.1, 0.7, 0.2], [0.9]).tolist() == [2]


def test_random_thresholds_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(0, 700))
        llr = rng.normal(0.0, 1.0, n)
        omega = float(rng.choice([0.0, 0.5, 5.0]))
        log_thr = float(rng.uniform(-1.0, 6.0))
        assert _kernels.gsr_first_alarm(llr, [log_thr], omega).tolist() == [
            first_at_or_above(gsr_path(llr, omega), log_thr)
        ]
        thr = float(rng.uniform(0.0, 6.0))
        assert _kernels.cusum_first_alarm(llr, [thr]).tolist() == [
            first_at_or_above(cusum_path(llr), thr)
        ]


def test_ewma_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 80))
        x = rng.normal(0.0, 1.0, n)
        burn_in = int(rng.integers(1, max(2, n)))
        lam = float(rng.uniform(0.05, 1.0))
        thr = float(rng.uniform(0.5, 4.0))
        mu0 = float(x[:burn_in].mean())
        s0 = float(x[:burn_in].std(ddof=1)) if burn_in > 1 else 0.0
        s0 = s0 or np.finfo(float).eps
        assert _kernels.ewma_first_alarm(x, lam, [thr], burn_in, mu0, s0).tolist() == [
            ewma_reference(x, lam, thr, burn_in, mu0, s0)
        ]


def test_empty_sequences_never_alarm():
    assert _kernels.gsr_first_alarm(np.empty(0), [-math.inf], 1.0).tolist() == [-1]
    assert _kernels.cusum_first_alarm(np.empty(0), [0.0]).tolist() == [-1]
    assert _kernels.ewma_first_alarm(np.empty(0), 0.2, [1.0], 1, 0.0, 1.0).tolist() == [-1]


def test_causal_across_block_edges():
    """Cutting a sequence at, just before or just after a block edge never
    moves an alarm that lies inside the prefix, and never raises one the full
    sequence does not have."""
    block = _kernels.BLOCK
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(200, 1201))
        llr = rng.normal(-0.2, 1.0, n)
        cuts = [
            k
            for edge in range(block, n + 1, block)
            for k in (edge - 1, edge, edge + 1)
            if 0 < k <= n
        ] + [int(rng.integers(1, n + 1))]
        gsr = gsr_path(llr, 0.0)
        cusum = cusum_path(llr)
        # Thresholds at the reference statistics' values at random frames,
        # so alarms fall on both sides of the cuts.
        for t in rng.integers(0, n, 4):
            (full_g,) = _kernels.gsr_first_alarm(llr, [gsr[t]], 0.0)
            (full_c,) = _kernels.cusum_first_alarm(llr, [cusum[t]])
            for k in cuts:
                (g,) = _kernels.gsr_first_alarm(llr[:k], [gsr[t]], 0.0)
                (c,) = _kernels.cusum_first_alarm(llr[:k], [cusum[t]])
                assert g == (full_g if full_g < k else -1)
                assert c == (full_c if full_c < k else -1)
