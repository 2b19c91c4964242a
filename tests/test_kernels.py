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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcdeval import _kernels
from qcdeval.detectors import DetectorConfig, LikelihoodModel, detector_levels, scan_table
from qcdeval.simulate import LabeledDataset

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


def slack(level):
    """The scans' tie slack below a level: SLACK * max(1, |level|) where the
    level is finite, 0 where it is not."""
    return SLACK * max(1.0, abs(level)) if math.isfinite(level) else 0.0


def first_at_or_above(path, level):
    hits = np.nonzero(path >= level - slack(level))[0]
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


def blocked_cusum_path(llr):
    """W(t) as the scan computes it: prefix sums over blocks of
    ``_kernels.BLOCK`` frames, W carried across each block edge."""
    out, w = np.empty(len(llr)), np.zeros(1)
    for s in range(0, len(llr), _kernels.BLOCK):
        block = _kernels._cusum_block(np.cumsum(llr[None, s : s + _kernels.BLOCK], axis=1), w)
        out[s : s + block.shape[1]] = block[0]
        w = block[:, -1]
    return out


def test_cusum_tie_above_2_14_alarms_at_the_reference_frame():
    # Above 2**14 one ulp of W (3.6e-12) is more than an absolute 1e-12, so
    # only a slack relative to the level lets an exact tie of the per-frame
    # W alarm where the blocked W rounds below it.
    llr = np.random.default_rng(0).normal(1.0, 1.0, 20_000)
    path, blocked = cusum_path(llr), blocked_cusum_path(llr)
    new_max = path > np.maximum.accumulate(np.concatenate([[-np.inf], path[:-1]]))
    t = int(np.flatnonzero((path > 2**14) & new_max & (blocked < path - SLACK))[0])
    assert first_at_or_above(path, path[t]) == t
    assert _kernels.cusum_first_alarm(llr, [path[t]]).tolist() == [t]


def test_tie_levels_relative_to_finite_levels():
    levels = [-2.0, 0.5, 1.0, 2.0**15, math.inf, -math.inf]
    got = _kernels.tie_levels(levels).tolist()
    assert got[:4] == [-2.0 - 2 * SLACK, 0.5 - SLACK, 1.0 - SLACK, 2.0**15 - SLACK * 2.0**15]
    assert got[4:] == [math.inf, -math.inf]
    assert math.isnan(_kernels.tie_levels([math.nan])[0])


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
    # An llr of NaN (inf - inf inside a model's llr, for a frame near the
    # float64 limit) makes the statistic NaN, which reaches no level above
    # -inf, as under a >= comparison.
    with np.errstate(invalid="ignore"):
        got = _kernels.gsr_first_alarm([np.nan, np.nan], [-np.inf, -5.0, np.inf], 0.0)
    assert got.tolist() == [0, -1, -1]


def pairwise_gsr_block(c, log_r0):
    """log R over one block by a pairwise logaddexp.accumulate of the
    exp(-c_{j-1}), on every row: the kernel's form for rows whose llr falls
    more than _kernels._SPAN within the block, or is NaN."""
    inner = np.empty_like(c)
    inner[:, 0] = -0.0
    np.negative(c[:, :-1], out=inner[:, 1:])
    np.logaddexp.accumulate(inner, axis=1, out=inner)
    np.logaddexp(log_r0[:, None], inner, out=inner, where=(log_r0 > -np.inf)[:, None])
    return np.add(c, inner, out=inner)


def extended_gsr_block(c, log_r0):
    """log R over one block from the same prefix sums c, in np.longdouble."""
    c, log_r0 = c.astype(np.longdouble), log_r0.astype(np.longdouble)[:, None]
    a = np.concatenate([np.zeros_like(c[:, :1]), -c[:, :-1]], axis=1)
    m = np.maximum(a.max(axis=1, keepdims=True), log_r0)
    return c + m + np.log(np.cumsum(np.exp(a - m), axis=1) + np.exp(log_r0 - m))


def test_gsr_block_within_a_fifth_of_tie_slack():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        sd, drift = rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0)
        c = np.cumsum(rng.normal(drift, sd, (64, _kernels.BLOCK)), axis=1)
        log_r0 = rng.choice([-np.inf, -30.0, 0.0, 5.0], 64)
        got = _kernels._gsr_block(c, log_r0)
        worst = max(worst, float(np.max(np.abs(got - extended_gsr_block(c, log_r0)))))
    assert worst <= SLACK / 5


def test_gsr_block_mixed_chunk_matches_pairwise_form():
    # Rows 0-2 are narrow: a mild llr, a +1e10 spike, and a fall of 650 nats
    # under a carried log R of 700. Rows 3-6 are wide and keep the pairwise
    # form bit for bit: pre-change llr of gaussian:0,3,1, a -1e10 spike, a
    # NaN from frame 100 on, and a NaN carried in.
    rng = np.random.default_rng(12)
    c = np.cumsum(rng.normal(0.0, 1.0, (7, _kernels.BLOCK)), axis=1)
    c[1, 40:] += 1e10
    c[2] -= np.linspace(0.0, 650.0, _kernels.BLOCK)
    c[3] = np.cumsum(3.0 * rng.normal(0.0, 1.0, _kernels.BLOCK) - 4.5)
    c[4, 50:] -= 1e10
    c[5, 100:] = np.nan
    log_r0 = np.array([0.0, -np.inf, 700.0, 5.0, -30.0, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        got = _kernels._gsr_block(c.copy(), log_r0)
        want = pairwise_gsr_block(c.copy(), log_r0)
    np.testing.assert_allclose(got[:3], want[:3], rtol=0.0, atol=SLACK / 5)
    assert not np.array_equal(got[:3], want[:3])  # the narrow rows take the new form
    np.testing.assert_array_equal(got[3:], want[3:])


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


# Frames that reach the float64 limit: under gaussian 0 -> 10 (var 1) the
# llr of -1e308 is -inf, of 1e308 +inf, and of 1e300 finite but huge.
LIMIT_MODEL = LikelihoodModel(kind="gaussian", mu0=0.0, mu1=10.0, var=1.0)
SPIKES = [-1e308, 1e308, -1e300, 1e300, -1e10, 1e10, 0.0, 10.0, -5.0]
# The rows of a dataset whose prefix sums meet an llr of -inf.
NEG_INF_ROWS = [[-1e308] + [10.0] * 5, [0.0] * 300 + [-1e308] + [10.0] * 5,
                [-1e308] * 2 + [10.0] * 600, [-1e308, 1e308, 0.0, 0.0]]


@st.composite
def scan_cases(draw):
    """A detector, a model, a grid and the rows of a dataset: seeded noise of
    lengths on both sides of BLOCK and 2 * BLOCK, pre-change up to a drawn
    changepoint (Gaussian models), with drawn spikes of mixed scale up to
    +-1e308 (non-negative whole counts under Poisson). Under gaussian:0,3,1
    and LIMIT_MODEL the pre-change llr falls by more than _kernels._SPAN
    within a block, so whole GSR rows take the kernel's pairwise form, and
    rows past their changepoint the shifted one from a large carried log R."""
    kind = draw(st.sampled_from(["gsr", "cusum"]))
    model = draw(st.sampled_from([LIMIT_MODEL, *MODELS.values()]))
    omega = draw(st.sampled_from([0.0, 0.5, 3.0])) if kind == "gsr" else 0.0
    grid = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 5.0, 100.0, 1e6, 1e300, math.inf])
                         | st.floats(0.5, 1e4) | st.floats(2.0**14, 2.0**20),
                         min_size=1, max_size=6))
    edges = [1, 2, 255, 256, 257, 511, 512, 513]
    rows = []
    for seed in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from(edges) | st.integers(1, 600))
        rng = np.random.default_rng(seed)
        if model.kind == "poisson":
            x = rng.poisson(model.lam0, n).astype(float)
            values = st.sampled_from([0.0, 1e300, 1e308, 50.0])
        else:
            x = rng.normal(model.mu0, math.sqrt(model.var), n)
            x[draw(st.integers(0, n)):] += model.mu1 - model.mu0
            values = st.sampled_from(SPIKES)
        for at, v in draw(st.lists(st.tuples(st.integers(0, n - 1), values), max_size=4)):
            x[at] = v
        rows.append(x)
    return kind, model, omega, grid, rows


def _reference(kind, model, omega, x, levels):
    """First frame of the per-frame recursion at each level, and per frame
    the drift of the block form: 1e-9 of the sum of |llr| (and |log omega|)
    since the sequence start or the last llr of -inf, after which both forms
    restart exactly."""
    llr = model.llr(x)
    path = gsr_path(llr, omega) if kind == "gsr" else cusum_path(llr)
    scale = np.where(np.isfinite(llr), np.abs(llr), 0.0)
    scale[0] += abs(math.log(omega)) if omega > 0 else 0.0
    restart = np.isneginf(llr)
    total, tol = 0.0, np.empty(len(llr))
    for t, (v, r) in enumerate(zip(scale.tolist(), restart.tolist())):
        total = 0.0 if r else total + v
        tol[t] = 1e-9 * total
    return path, tol, [first_at_or_above(path, level) for level in levels]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scan_cases())
@example(("gsr", LIMIT_MODEL, 0.0, [100.0], [np.array(r) for r in NEG_INF_ROWS]))
@example(("cusum", LIMIT_MODEL, 0.0, [100.0], [np.array(r) for r in NEG_INF_ROWS]))
@example(("gsr", MODELS["gauss0-3"], 0.5, [5.0, 1e4],
          [np.random.default_rng(r).normal(0.0, 1.0, 600) + 3.0 * (np.arange(600) >= nu)
           for r, nu in enumerate([600, 300, 520])]))
def test_scan_table_matches_per_frame_recursion(case):
    """``scan_table`` row by row against the per-frame recursion: equal
    frames, or the two disagree only where the statistic is within the
    block form's drift and the tie slack of the level."""
    kind, model, omega, grid, rows = case
    config = DetectorConfig(kind=kind, threshold=None, model=model, omega=omega)
    levels = detector_levels(config, grid)
    dataset = LabeledDataset.from_sequences(range(len(rows)), rows, [math.inf] * len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        table = scan_table(dataset, config, levels)
        for x, got in zip(rows, table.tolist()):
            path, tol, want = _reference(kind, model, omega, x, levels)
            for level, g, w in zip(levels.tolist(), got, want):
                if g == w:
                    continue
                tol_level = tol + slack(level)
                g_end, w_end = (len(x) if f < 0 else f for f in (g, w))
                if g_end < w_end:  # the block form alarms first: near the level there
                    ok = path[g_end] >= level - tol_level[g_end]
                else:  # it alarms later or never: near or below the level until then
                    ok = bool(np.all(path[w_end:g_end] <= level + tol_level[w_end:g_end]))
                assert ok, (kind, level, g, w, x.tolist())
