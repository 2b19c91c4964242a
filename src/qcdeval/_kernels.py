"""First-alarm scan kernels.

Each function takes a scalar threshold or an array of thresholds and returns
the first frame index at which the detector statistic reaches each of them,
or -1 where no alarm is raised within the sequence: an int for a scalar, an
int array of the thresholds' shape for an array. The statistic is computed
once per call, whatever the number of thresholds, and ``first_crossings``
reads every threshold's first alarm off its running maximum.

GSR and CUSUM compute their statistics from prefix sums, one block of BLOCK
frames at a time. Each block restarts its sums at zero and carries the
statistic (log R or W) in from the block before, so the rounding drift from
the per-frame recursion stays that of one block's sums at every sequence
length. A kernel stops after the first block in which the statistic has
reached every threshold. Block edges are fixed frame indices and
``cumsum``/``accumulate`` are sequential, so the statistic at frame t
depends on frames 0..t alone: alarms are causal bit for bit.

Tie policy: GSR and CUSUM alarm once the statistic is within TIE_SLACK of the
threshold (log R >= log h - TIE_SLACK, W >= h - TIE_SLACK), so an exact tie
alarms whichever arithmetic reached it; the Monte-Carlo oracle uses the same
slack. EWMA compares |Z - mu0| >= h * width with no slack, one comparison per
threshold.
"""

import numpy as np

BLOCK = 256  # frames per prefix-sum block
TIE_SLACK = 1e-12


def first_crossings(stat, levels, start=0):
    """First index i >= start with stat[i] >= level, for each level (-1 where
    there is none): a binary search of the running maximum of stat[start:].
    A scalar level gives an int, an array of levels an int array."""
    # A NaN statistic (inf - inf from frames near the float64 limit) reaches
    # no level above -inf, as under a per-threshold >= comparison.
    stat = stat[start:]
    run_max = np.maximum.accumulate(np.where(np.isnan(stat), -np.inf, stat))
    first = np.searchsorted(run_max, levels)
    first = np.where(first < run_max.size, first + start, -1)
    return int(first) if first.ndim == 0 else first


def _blocked_first_alarm(llr, levels, carry, block_stat):
    """Scan ``block_stat(cumsum of the block's llr, statistic carried in)``
    block by block until the statistic has reached every level."""
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64) - TIE_SLACK
    top = np.max(levels, initial=-np.inf)
    stat = [np.empty(0)]
    for s in range(0, llr.size, BLOCK):
        block = block_stat(np.cumsum(llr[s : s + BLOCK]), carry)
        stat.append(block)
        if block.max() >= top:
            break
        carry = block[-1]
    return first_crossings(np.concatenate(stat), levels)


def _gsr_block(c, log_r0):
    # R(t) = (R(t-1) + 1) L(t), R(-1) = omega, computed in log space. In the
    # block starting at frame s, with c the block's cumulative log-likelihood
    # ratio and c_{-1} = 0:
    # log R(s+j) = c_j + log(R(s-1) + sum_{k<=j} exp(-c_{k-1})).
    prefix = np.concatenate(([0.0], c[:-1]))
    inner = np.logaddexp.accumulate(-prefix)
    if log_r0 > -np.inf:
        inner = np.logaddexp(log_r0, inner)
    return c + inner


def _cusum_block(c, w0):
    # W(t) = max(0, W(t-1) + llr_t). In the block starting at frame s, with c
    # the block's cumulative log-likelihood ratio:
    # W(s+j) = c_j - min(-W(s-1), c_0, ..., c_j).
    return c - np.minimum(np.minimum.accumulate(c), -w0)


def gsr_first_alarm(llr, log_threshold, omega):
    log_r0 = np.log(omega) if omega > 0.0 else -np.inf
    return _blocked_first_alarm(llr, log_threshold, log_r0, _gsr_block)


def cusum_first_alarm(llr, threshold):
    return _blocked_first_alarm(llr, threshold, 0.0, _cusum_block)


def ewma_first_alarm(x, lam, threshold, burn_in, mu0, sigma0):
    # Z(-1) = mu0; Z(t) = lam x_t + (1-lam) Z(t-1); alarm when the deviation
    # from mu0 exceeds threshold times the exact (time-varying) control-limit
    # width sigma0 * sqrt(lam/(2-lam) * (1 - (1-lam)^(2(t+1)))).
    from scipy.signal import lfilter

    x = np.ascontiguousarray(x, dtype=np.float64)
    levels = np.asarray(threshold, dtype=np.float64)
    # Track d = Z - mu0 so a constant sequence at mu0 stays at exactly zero
    # deviation instead of accumulating rounding noise.
    d, _ = lfilter([lam], [1.0, -(1.0 - lam)], x - mu0, zi=[0.0])
    t = np.arange(x.size, dtype=np.float64)
    width = sigma0 * np.sqrt(
        lam / (2.0 - lam) * (1.0 - (1.0 - lam) ** (2.0 * (t + 1.0)))
    )
    dev = np.abs(d)
    first = [first_crossings(dev >= h * width, True, burn_in) for h in levels.flat]
    if levels.ndim == 0:
        return first[0]
    return np.array(first, dtype=np.int64).reshape(levels.shape)
