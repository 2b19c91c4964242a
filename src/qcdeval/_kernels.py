"""First-alarm scan kernels.

Each kernel returns the first frame at which the detector statistic reaches
each of a 1-D array of levels, or -1 where it never does, from one pass.

``gsr_alarm_table`` and ``cusum_alarm_table`` scan every sequence of a flat
frame buffer into a (sequences x levels) table; ``gsr_first_alarm`` and
``cusum_first_alarm`` are their one-sequence calls on log-likelihood ratios.
The statistics come from prefix sums, one block of BLOCK frames at a time:
each block restarts its sums at zero and carries the statistic (log R or W)
in from the block before, so the rounding drift from the per-frame recursion
stays that of one block's sums at every length. A block is scanned ROWS
sequences at a time, longest first, one row each; a sequence stops at its
last frame or after the block in which it reached every level. Block edges
are fixed frame indices and ``cumsum``/``accumulate`` run along each row, so
the statistic at frame t depends on frames 0..t of its own sequence alone.

GSR takes the log of a block's running sum of exp(-c) (c the llr's prefix
sums) as a shifted log-sum-exp: one vectorised exp, cumsum and log per row,
each term divided by the row's largest, so every partial sum of a row whose
terms span at most _SPAN = 600 nats is at least exp(-600), a normal double,
and its log is finite. A row whose llr falls by more than that within the
block, or is NaN, keeps the pairwise ``np.logaddexp.accumulate``.

Tie policy: GSR and CUSUM alarm once the statistic is within
TIE_SLACK * max(1, |level|) of a finite level (``tie_levels``; log R >= log h
less it, W >= h less it), so an exact tie alarms whichever arithmetic reached
it, also above 2**14, where an absolute 1e-12 is below one ulp of the level;
the Monte-Carlo oracle uses the same slack. EWMA scans one sequence,
comparing |Z - mu0| >= h * width with no slack for every level still without
an alarm, one block at a time.
"""

import itertools

import numpy as np

BLOCK = 256  # frames per prefix-sum block
ROWS = 128  # rows per chunk of a block in the GSR and CUSUM scans
TIE_SLACK = 1e-12
_SPAN = 600.0  # widest log-sum-exp shift of a GSR row (see _gsr_block)


def first_crossings(stat, levels, start=0):
    """First index i >= start with stat[i] >= level, for each of the 1-D
    ``levels`` (-1 where there is none): a binary search of the running
    maximum of stat[start:]."""
    # A NaN statistic (inf - inf from frames near the float64 limit) reaches
    # no level above -inf, as under a per-threshold >= comparison.
    stat = stat[start:]
    run_max = np.maximum.accumulate(np.where(np.isnan(stat), -np.inf, stat))
    first = np.searchsorted(run_max, levels)
    return np.where(first < run_max.size, first + start, -1)


def tie_levels(levels):
    """The 1-D ``levels`` less the tie slack, TIE_SLACK * max(1, |level|),
    where they are finite; infinite (and NaN) levels stay as they are."""
    levels = np.asarray(levels, dtype=np.float64)
    slack = TIE_SLACK * np.maximum(1.0, np.abs(levels))  # inf at an inf level
    return levels - np.where(np.isfinite(levels), slack, 0.0)


def _first_alarm_table(frames, offsets, levels, carry, block_stat, reset, llr=None):
    """First alarm of each row ``frames[offsets[i]:offsets[i + 1]]`` at each
    of the 1-D ``levels`` (-1 for none). ``llr`` maps frames to their llr
    (None: the frames are llr), ``block_stat(cumsum of a block's llr along
    axis 1, statistic carried in per row)`` gives a block's statistic, and
    ``reset`` is the statistic at a frame whose llr is -inf."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    levels = tie_levels(levels)
    by_level = np.argsort(levels, kind="stable")
    levels, k = levels[by_level], levels.size
    first = np.full((lengths.size, k), -1, dtype=np.int64)
    stat = np.full(lengths.size, carry, dtype=np.float64)  # carried across block edges
    reached = np.zeros(lengths.size, dtype=np.int64)  # sorted levels reached so far
    rows = np.argsort(-lengths, kind="stable")  # longest first
    for s in range(0, int(lengths.max(initial=0)), BLOCK):
        # The rows still running: a prefix of the order, less those done.
        rows = rows[(lengths[rows] > s) & (reached[rows] < k)]
        if not rows.size:
            break
        for a in range(0, rows.size, ROWS):
            chunk = rows[a : a + ROWS]
            i = np.arange(chunk.size)
            last = np.minimum(lengths[chunk] - s, BLOCK) - 1  # each row's last column
            width = int(last[0]) + 1
            # Columns past a row's last frame read the frames that follow it.
            # Nothing reads their statistic: a level first reached in this
            # block is reached by the row's last column, running max included.
            x = frames.take(offsets[chunk, None] + s + np.arange(width), mode="clip")
            if llr is not None:
                x = llr(x)
            # An llr of -inf makes the prefix sums -inf, and the statistic
            # NaN from there on; rows that hold one are restarted after each.
            cut = np.flatnonzero(np.isneginf(x).any(axis=1)) if np.isneginf(x).any() else i[:0]
            raw = x[cut]
            block = block_stat(np.cumsum(x, axis=1, out=x), stat[chunk])
            for r, row in zip(cut.tolist(), raw):
                block[r] = _restarted(row, stat[chunk[r]], block_stat, reset)
            stat[chunk] = block[:, -1]  # read only by rows that fill the block
            # The running max of each row in the block, and the sorted levels
            # it has reached. np.fmax turns a NaN statistic (inf - inf from
            # frames near the float64 limit) into -inf, which reaches -inf
            # levels only, as under a per-threshold >= comparison.
            np.fmax(block, -np.inf, out=block)
            np.maximum.accumulate(block, axis=1, out=block)
            q = np.searchsorted(levels, block, "right")
            lo = reached[chunk]
            reached[chunk] = hi = np.maximum(q[i, last], lo)
            # Levels lo..hi-1 of each row are new; each one's first frame is
            # a binary search over the keys row * (k + 1) + q, which rise
            # row-major through the chunk.
            count = hi - lo
            pair = np.repeat(i, count)
            level = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
            q += (i * (k + 1))[:, None]
            at = np.searchsorted(q.ravel(), pair * (k + 1) + level + 1)
            first[chunk[pair], by_level[level]] = s + at - pair * width
    return first


def _restarted(llr, carry, block_stat, reset):
    """``block_stat`` of one row's block of llr from ``carry``, with the
    statistic set to ``reset`` at each frame whose llr is -inf and the prefix
    sums restarted after it."""
    out = np.empty_like(llr)
    start = 0
    for end in [*np.flatnonzero(np.isneginf(llr)).tolist(), llr.size]:
        if end > start:
            part = np.cumsum(llr[None, start:end], axis=1)
            out[start:end] = block_stat(part, np.array([carry]))[0]
            carry = out[end - 1]
        if end < llr.size:
            out[end] = carry = reset
        start = end + 1
    return out


def _gsr_block(c, log_r0):
    # R(t) = (R(t-1) + 1) L(t), R(-1) = omega, computed in log space. In the
    # block starting at frame s, with c a row's cumulative log-likelihood
    # ratio over the block, c_{-1} = 0 and a_k = -c_{k-1}:
    # log R(s+j) = c_j + log(R(s-1) + sum_{k<=j} exp(a_k)).
    # The log of the sum is a shifted log-sum-exp: with m the larger of
    # log R(s-1) and the row's largest a_k, it is m + log(exp(log R(s-1) - m)
    # + cumsum(exp(a_k - m))). Its terms are positive, so the cumsum's
    # relative error stays about j ulp. A row is narrow when m - max(log
    # R(s-1), 0) <= _SPAN: every partial sum then holds exp(a_0 - m) =
    # exp(-m) or exp(log R(s-1) - m), one of which is at least exp(-_SPAN),
    # a normal double, so no log meets 0. A wide row (its llr falls by more
    # than _SPAN within the block, or is NaN) keeps logaddexp.accumulate.
    inner = np.empty_like(c)  # a_j, then the log of the sum
    inner[:, 0] = -0.0
    np.negative(c[:, :-1], out=inner[:, 1:])
    m = np.maximum(inner.max(axis=1), log_r0)
    narrow = m - np.maximum(log_r0, 0.0) <= _SPAN  # False for a NaN
    if narrow.all():
        _shifted_logsumexp(inner, log_r0, m)
    else:
        part = inner[narrow]
        _shifted_logsumexp(part, log_r0[narrow], m[narrow])
        inner[narrow] = part
        wide = ~narrow
        part, log_r0 = inner[wide], log_r0[wide]
        np.logaddexp.accumulate(part, axis=1, out=part)
        np.logaddexp(log_r0[:, None], part, out=part, where=(log_r0 > -np.inf)[:, None])
        inner[wide] = part
    return np.add(c, inner, out=inner)


def _shifted_logsumexp(a, log_r0, m):
    """Overwrite each narrow row of ``a`` with m + log(exp(log_r0 - m) +
    cumsum(exp(a - m)))."""
    a -= m[:, None]
    np.exp(a, out=a)
    np.cumsum(a, axis=1, out=a)
    a += np.exp(log_r0 - m)[:, None]
    np.log(a, out=a)
    a += m[:, None]


def _cusum_block(c, w0):
    # W(t) = max(0, W(t-1) + llr_t). In the block starting at frame s, with c
    # a row's cumulative log-likelihood ratio over the block:
    # W(s+j) = c_j - min(-W(s-1), c_0, ..., c_j).
    low = np.minimum(np.minimum.accumulate(c, axis=1), -w0[:, None])
    return np.subtract(c, low, out=low)


def gsr_alarm_table(frames, offsets, log_levels, omega, llr=None):
    """GSR first alarms of each row at each level of log R."""
    log_r0 = np.log(omega) if omega > 0.0 else -np.inf
    return _first_alarm_table(frames, offsets, log_levels, log_r0, _gsr_block, -np.inf, llr)


def cusum_alarm_table(frames, offsets, levels, llr=None):
    """CUSUM first alarms of each row at each level of W."""
    return _first_alarm_table(frames, offsets, levels, 0.0, _cusum_block, 0.0, llr)


def gsr_first_alarm(llr, log_threshold, omega):
    return gsr_alarm_table(llr, [0, np.size(llr)], log_threshold, omega)[0]


def cusum_first_alarm(llr, threshold):
    return cusum_alarm_table(llr, [0, np.size(llr)], threshold)[0]


def ewma_first_alarm(x, lam, threshold, burn_in, mu0, sigma0):
    # Z(-1) = mu0; Z(t) = lam x_t + (1-lam) Z(t-1); alarm when the deviation
    # from mu0 exceeds threshold times the exact (time-varying) control-limit
    # width sigma0 * sqrt(lam/(2-lam) * (1 - (1-lam)^(2(t+1)))).
    x = np.ascontiguousarray(x, dtype=np.float64)
    levels = np.asarray(threshold, dtype=np.float64)
    # Track d = Z - mu0 so a constant sequence at mu0 stays at exactly zero
    # deviation instead of accumulating rounding noise. The recursion
    # d(t) = lam (x_t - mu0) + (1-lam) d(t-1) runs in Python floats, which
    # round each product and the sum as an order-1 IIR filter does.
    r = 1.0 - lam
    u = (lam * (x - mu0)).tolist()
    d = np.fromiter(itertools.accumulate(u, lambda z, v: v + r * z), np.float64, x.size)
    t = np.arange(x.size, dtype=np.float64)
    width = sigma0 * np.sqrt(lam / (2.0 - lam) * (1.0 - r ** (2.0 * (t + 1.0))))
    dev = np.abs(d)
    # Block by block from burn_in, the one-threshold comparison for every
    # level that has not alarmed yet.
    first = np.full(levels.size, -1, dtype=np.int64)
    pending = np.arange(levels.size)
    for s in range(burn_in, x.size, BLOCK):
        hit = dev[s : s + BLOCK] >= levels[pending, None] * width[s : s + BLOCK]
        i = hit.argmax(axis=1)
        alarmed = hit[np.arange(pending.size), i]
        first[pending[alarmed]] = s + i[alarmed]
        pending = pending[~alarmed]
        if not pending.size:
            break
    return first
