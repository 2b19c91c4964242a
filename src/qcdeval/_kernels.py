"""First-alarm scan kernels.

Each function returns the first frame index at which the detector statistic
reaches its threshold, or -1 when no alarm is raised within the sequence.

GSR and CUSUM compute their statistics from prefix sums, one block of BLOCK
frames at a time. Each block restarts its sums at zero and carries the
statistic (log R or W) in from the block before, so the rounding drift from
the per-frame recursion stays that of one block's sums at every sequence
length. A kernel stops at the first block that holds an alarm. Block edges
are fixed frame indices and ``cumsum``/``accumulate`` are sequential, so the
statistic at frame t depends on frames 0..t alone: alarms are causal bit for
bit.

Tie policy: GSR and CUSUM alarm once the statistic is within TIE_SLACK of the
threshold (log R >= log h - TIE_SLACK, W >= h - TIE_SLACK), so an exact tie
alarms whichever arithmetic reached it; the Monte-Carlo oracle uses the same
slack. EWMA compares |Z - mu0| >= h * width with no slack.
"""

import numpy as np

BLOCK = 256  # frames per prefix-sum block
TIE_SLACK = 1e-12


def gsr_first_alarm(llr, log_threshold, omega):
    # R(t) = (R(t-1) + 1) L(t), R(-1) = omega, computed in log space. In the
    # block starting at frame s, with c the block's cumulative log-likelihood
    # ratio and c_{-1} = 0:
    # log R(s+j) = c_j + log(R(s-1) + sum_{k<=j} exp(-c_{k-1})).
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    level = log_threshold - TIE_SLACK
    log_r0 = np.log(omega) if omega > 0.0 else -np.inf
    for s in range(0, llr.size, BLOCK):
        c = np.cumsum(llr[s : s + BLOCK])
        prefix = np.concatenate(([0.0], c[:-1]))
        inner = np.logaddexp.accumulate(-prefix)
        if log_r0 > -np.inf:
            inner = np.logaddexp(log_r0, inner)
        log_r = c + inner
        hits = np.nonzero(log_r >= level)[0]
        if hits.size:
            return s + int(hits[0])
        log_r0 = log_r[-1]
    return -1


def cusum_first_alarm(llr, threshold):
    # W(t) = max(0, W(t-1) + llr_t). In the block starting at frame s, with c
    # the block's cumulative log-likelihood ratio:
    # W(s+j) = c_j - min(-W(s-1), c_0, ..., c_j).
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    level = threshold - TIE_SLACK
    w0 = 0.0
    for s in range(0, llr.size, BLOCK):
        c = np.cumsum(llr[s : s + BLOCK])
        w = c - np.minimum(np.minimum.accumulate(c), -w0)
        hits = np.nonzero(w >= level)[0]
        if hits.size:
            return s + int(hits[0])
        w0 = w[-1]
    return -1


def ewma_first_alarm(x, lam, threshold, burn_in, mu0, sigma0):
    # Z(-1) = mu0; Z(t) = lam x_t + (1-lam) Z(t-1); alarm when the deviation
    # from mu0 exceeds threshold times the exact (time-varying) control-limit
    # width sigma0 * sqrt(lam/(2-lam) * (1 - (1-lam)^(2(t+1)))).
    from scipy.signal import lfilter

    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if n == 0 or burn_in >= n:
        return -1
    # Track d = Z - mu0 so a constant sequence at mu0 stays at exactly zero
    # deviation instead of accumulating rounding noise.
    d, _ = lfilter([lam], [1.0, -(1.0 - lam)], x - mu0, zi=[0.0])
    t = np.arange(n, dtype=np.float64)
    width = sigma0 * np.sqrt(
        lam / (2.0 - lam) * (1.0 - (1.0 - lam) ** (2.0 * (t + 1.0)))
    )
    dev = np.abs(d)
    alarms = (dev >= threshold * width) & (t >= burn_in)
    hits = np.nonzero(alarms)[0]
    return int(hits[0]) if hits.size else -1
