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


def ewma_path(x, lam, mu0, sigma0):
    """|d(t)|, with d = Z - mu0 stepped one frame at a time, and the control
    limit width(t) in the kernel's closed form."""
    d, dev = 0.0, []
    for v in x:
        d = lam * (v - mu0) + (1.0 - lam) * d
        dev.append(abs(d))
    t = np.arange(len(x), dtype=np.float64)
    width = sigma0 * np.sqrt(lam / (2.0 - lam) * (1.0 - (1.0 - lam) ** (2.0 * (t + 1.0))))
    return np.array(dev), width


def ewma_reference(x, lam, levels, burn_in, mu0, sigma0):
    """First frame t >= burn_in with |d(t)| >= h * width(t), for each level h."""
    dev, width = ewma_path(x, lam, mu0, sigma0)
    hits = [np.flatnonzero(dev[burn_in:] >= h * width[burn_in:]) for h in levels]
    return [int(i[0]) + burn_in if i.size else -1 for i in hits]


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
    # Each grid holds the ratio |d| / width at sampled frames with both of its
    # float neighbours, where h * width rounds either side of |d|, and levels
    # at the ends of the float range. The lengths reach past one BLOCK, and a
    # spike on the last or first frame of the scan's first block puts an
    # alarm there.
    edge = [0.0, -0.0, 5e-324, 1e-320, 1e300, math.inf, -math.inf]
    rng = np.random.default_rng(2)
    for case in range(300):
        n = [int(rng.integers(2, 80)), 255, 256, 257, 600][case % 5]
        x = rng.normal(0.0, 1.0, n)
        burn_in = int(rng.integers(1, max(2, n)))
        spike = min(n - 1, burn_in + _kernels.BLOCK - int(rng.integers(0, 2)))
        x[spike] += 8.0
        lam = float(rng.uniform(0.05, 1.0))
        mu0 = float(x[:burn_in].mean())
        s0 = float(x[:burn_in].std(ddof=1)) if burn_in > 1 else 0.0
        s0 = s0 or np.finfo(float).eps
        dev, width = ewma_path(x, lam, mu0, s0)
        ratio = (dev / width)[[*rng.integers(burn_in, n, 4), spike]]
        grid = [*ratio, *np.nextafter(ratio, math.inf), *np.nextafter(ratio, -math.inf), *edge,
                float(rng.uniform(0.5, 4.0))]
        assert _kernels.ewma_first_alarm(x, lam, grid, burn_in, mu0, s0).tolist() == (
            ewma_reference(x, lam, grid, burn_in, mu0, s0)
        )


def test_empty_sequences_never_alarm():
    assert _kernels.gsr_first_alarm(np.empty(0), [-math.inf], 1.0).tolist() == [-1]
    assert _kernels.cusum_first_alarm(np.empty(0), [0.0]).tolist() == [-1]
    assert _kernels.ewma_first_alarm(np.empty(0), 0.2, [1.0], 1, 0.0, 1.0).tolist() == [-1]


def test_nan_statistic_reaches_only_minus_inf():
    # Two llr of -inf make the GSR prefix form -inf + inf = NaN at frame 1,
    # which reaches no level above -inf, as under a >= comparison.
    with np.errstate(invalid="ignore"):
        got = _kernels.gsr_first_alarm([-np.inf, -np.inf], [-np.inf, -5.0, np.inf], 0.0)
    assert got.tolist() == [0, -1, -1]


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
