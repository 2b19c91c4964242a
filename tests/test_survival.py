import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcdeval.survival import (
    SurvivalSample,
    _product_limit,
    _restricted_rows,
    fit_km,
    fit_km_arrays,
    rmst,
    rmst_km_batch,
)


def S(time, event):
    return SurvivalSample(time=time, event=event)


def fit_km_reference(samples):
    """Per-drop-time loop: risk set and deaths counted directly at each
    distinct event time."""
    times = np.array([s.time for s in samples], dtype=np.float64)
    events = np.array([s.event for s in samples], dtype=bool)
    drop_times = np.unique(times[events])
    at_risk = np.empty(drop_times.size, dtype=np.int64)
    deaths = np.empty(drop_times.size, dtype=np.int64)
    for j, t in enumerate(drop_times):
        at_risk[j] = int(np.sum(times >= t))
        deaths[j] = int(np.sum(events & (times == t)))
    return drop_times, np.cumprod(1.0 - deaths / at_risk), at_risk, deaths


class TestFitKM:
    def test_hand_curve(self):
        curve = fit_km([S(1, True), S(2, False), S(3, True)])
        assert curve.drop_times.tolist() == [1.0, 3.0]
        assert curve.survival_values == pytest.approx([2 / 3, 0.0], abs=1e-12)
        assert curve.at_risk.tolist() == [3, 1]
        assert curve.deaths.tolist() == [1, 1]
        assert curve.max_observed == 3.0

    def test_single_event(self):
        curve = fit_km([S(5, True)])
        assert curve.survival_at(4.999) == 1.0
        assert curve.survival_at(5.0) == 0.0

    def test_all_censored_flat(self):
        curve = fit_km([S(4, False), S(4, False)])
        assert curve.drop_times.size == 0
        assert curve.survival_at(100.0) == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no samples"):
            fit_km([])

    def test_invalid_sample_errors(self):
        with pytest.raises(ValueError, match="invalid sample"):
            SurvivalSample(time=-1.0, event=True)
        with pytest.raises(ValueError, match="invalid sample"):
            SurvivalSample(time=math.inf, event=False)

    def test_tie_keeps_censored_in_risk_set(self):
        # A death and a censoring at the same time: the death happens first,
        # so the risk set at that time counts both samples.
        curve = fit_km([S(2, True), S(2, False)])
        assert curve.at_risk.tolist() == [2]
        assert curve.survival_values == pytest.approx([0.5])

    def test_product_limit_identity(self):
        rng = np.random.default_rng(0)
        samples = [
            S(float(t), bool(e))
            for t, e in zip(rng.integers(0, 10, 40), rng.random(40) < 0.6)
        ]
        curve = fit_km(samples)
        expected = np.cumprod(1.0 - curve.deaths / curve.at_risk)
        assert curve.survival_values == pytest.approx(expected, abs=1e-12)
        assert np.all(np.diff(curve.survival_values) <= 1e-15)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30)
    )
    def test_uncensored_equals_empirical(self, times):
        samples = [S(float(t), True) for t in times]
        curve = fit_km(samples)
        n = len(times)
        for t in range(-1, 22):
            emp = sum(1 for v in times if v > t) / n
            assert curve.survival_at(float(t)) == pytest.approx(emp, abs=1e-12)


    def test_matches_per_drop_loop_exactly(self):
        # Integer times give event/event and event/censoring ties.
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            times = rng.integers(0, int(rng.integers(1, 12)), n)
            events = rng.random(n) < rng.random()
            samples = [S(float(t), bool(e)) for t, e in zip(times, events)]
            curve = fit_km(samples)
            got = (curve.drop_times, curve.survival_values, curve.at_risk, curve.deaths)
            for g, want in zip(got, fit_km_reference(samples)):
                assert g.dtype == want.dtype
                assert np.array_equal(g, want)


class TestRMST:
    def test_hand_value(self):
        curve = fit_km([S(1, True), S(2, False), S(3, True)])
        assert rmst(curve, 3.0).value == pytest.approx(7 / 3, abs=1e-12)

    def test_all_censored_is_horizon(self):
        curve = fit_km([S(4, False), S(9, False)])
        assert rmst(curve, 6.5).value == 6.5

    def test_deterministic_event_zero_variance(self):
        curve = fit_km([S(5, True)])
        rm = rmst(curve, 5.0)
        assert rm.value == 5.0
        assert rm.variance == 0.0

    def test_negative_limit_errors(self):
        curve = fit_km([S(1, True)])
        with pytest.raises(ValueError):
            rmst(curve, -0.5)

    def test_extrapolation_flag(self):
        curve = fit_km([S(2, False)])
        assert rmst(curve, 3.0).extrapolated
        assert not rmst(curve, 2.0).extrapolated

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.booleans()), min_size=1, max_size=25
        ),
        st.floats(0.0, 20.0),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=60)
    def test_monotone_and_lipschitz_in_horizon(self, data, a, delta):
        curve = fit_km([S(float(t), e) for t, e in data])
        v1 = rmst(curve, a).value
        v2 = rmst(curve, a + delta).value
        assert v2 >= v1 - 1e-12
        assert v2 - v1 <= delta + 1e-9
        assert 0.0 <= v1 <= a + 1e-12

    def test_late_censoring_leaves_curve_unchanged(self):
        base = [S(1, True), S(3, True)]
        curve1 = fit_km(base)
        curve2 = fit_km(base + [S(10, False)])
        for t in (0.5, 1.0, 2.0, 3.0, 9.0):
            # values differ because risk sets grow, but adding a censoring
            # beyond all drop times must not introduce new drops
            assert curve2.drop_times.tolist() == curve1.drop_times.tolist()
        curve3 = fit_km([S(1, True), S(0.5, False), S(10, False)])
        assert curve3.drop_times.tolist() == [1.0]


class TestBatchRMST:
    def test_matches_single_fit(self):
        rng = np.random.default_rng(3)
        ev = rng.exponential(1.0, (30, 8))
        ce = rng.uniform(0.0, 2.0, (30, 8))
        times = np.minimum(ev, ce)
        events = ev < ce
        batch = rmst_km_batch(times, events, 1.0)
        for i in range(30):
            samples = [
                S(float(times[i, j]), bool(events[i, j])) for j in range(8)
            ]
            assert batch[i] == pytest.approx(
                rmst(fit_km(samples), 1.0).value, abs=1e-12
            )

    def test_exact_on_tie_free_rows(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 9, 40):
            ev = rng.exponential(1.0, (200, n))
            ce = rng.uniform(0.0, 2.0, (200, n))
            times, events = np.minimum(ev, ce), ev < ce
            batch = rmst_km_batch(times, events, 1.0)
            single = [
                rmst(fit_km([S(float(t), bool(e)) for t, e in zip(tr, er)]), 1.0).value
                for tr, er in zip(times, events)
            ]
            assert batch.tolist() == single

    def test_ties_match_single_fit(self):
        # Integer times force event/censoring ties; the batch path must use
        # the same death-before-censoring convention.
        rng = np.random.default_rng(4)
        times = rng.integers(0, 4, (20, 6)).astype(float)
        events = rng.random((20, 6)) < 0.5
        batch = rmst_km_batch(times, events, 3.0)
        for i in range(20):
            samples = [
                S(float(times[i, j]), bool(events[i, j])) for j in range(6)
            ]
            assert batch[i] == pytest.approx(
                rmst(fit_km(samples), 3.0).value, abs=1e-12
            )

    def test_bit_identical_to_rmst_for_every_drop_count(self):
        # Rows with 0..n events, so every drop count 0..n occurs (n = 12:
        # sums of up to 13 terms, past numpy's 8-way unrolled block), among
        # them all-censored rows, rows of integer times with ties, and a = 0.
        rng = np.random.default_rng(11)
        n = 12
        times, events = [], []
        for k in range(n + 1):
            hit = np.zeros(n, dtype=bool)
            hit[rng.permutation(n)[:k]] = True
            times += [rng.exponential(1.0, n), rng.integers(0, 4, n).astype(float)]
            events += [hit, hit]
        times, events = np.array(times), np.array(events)
        for a in (0.0, 0.5, 1.0, 3.0, 100.0):
            batch = rmst_km_batch(times, events, a)
            single = [rmst(fit_km_arrays(t, e), a).value for t, e in zip(times, events)]
            assert batch.tolist() == single, a


    def test_blocks_are_bit_identical_to_rmst(self):
        # 3000 x 100 spans several blocks, and a 70000-sample row fills a
        # block by itself. Integer times tie events with censorings, and
        # -0.0 must fit as 0.0.
        rng = np.random.default_rng(12)
        ties = rng.integers(0, 20, (3000, 100)).astype(float)
        ties[ties == 0.0] = -0.0
        cases = [
            (rng.exponential(1.0, (3000, 100)), 1.0),
            (ties, 7.0),
            (rng.integers(0, 500, (3, 70_000)).astype(float), 300.0),
        ]
        for times, a in cases:
            events = rng.random(times.shape) < 0.6
            batch = rmst_km_batch(times, events, a)
            single = [rmst(fit_km_arrays(t, e), a).value for t, e in zip(times, events)]
            assert batch.tobytes() == np.array(single).tobytes()
        assert np.signbit(ties).any()
        signed = fit_km_arrays([-0.0, 1.0, -0.0], [True, True, False])
        unsigned = fit_km_arrays([0.0, 1.0, 0.0], [True, True, False])
        assert signed.drop_times.tobytes() == unsigned.drop_times.tobytes()
        assert signed.survival_values.tolist() == unsigned.survival_values.tolist()

    @pytest.mark.parametrize(
        "times, events, a, match",
        [
            ([[0.5, math.nan, 1.0], [-1.0, 0.5, 2.0]], [[1, 1, 1], [1, 1, 0]], 1.5,
             "invalid sample: time=nan"),
            ([[0.5, 0.7], [-1.0, 0.5]], [[1, 1], [1, 0]], 1.5, "invalid sample: time=-1.0"),
            ([[0.5, 0.7]], [[1, 1]], -1.0, "invalid upper_limit: -1.0"),
            ([[0.5, 0.7]], [[1, 1]], math.nan, "invalid upper_limit: nan"),
            ([0.5, 0.7], [1, 1], 1.0, "2-D arrays of one shape"),
            ([[0.5, 0.7]], [[1, 1, 0]], 1.0, "2-D arrays of one shape"),
            (np.empty((2, 0)), np.empty((2, 0)), 1.0, "no samples"),
        ],
    )
    def test_rejects_what_fit_km_arrays_and_rmst_reject(self, times, events, a, match):
        with pytest.raises(ValueError, match=match):
            rmst_km_batch(times, events, a)

    def test_traced_peak_does_not_grow_with_rows(self):
        rng = np.random.default_rng(13)
        peaks = []
        for reps in (2000, 20_000):
            times = rng.exponential(1.0, (reps, 100))
            events = rng.random((reps, 100)) < 0.5
            tracemalloc.start()
            try:
                rmst_km_batch(times, events, 1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


@st.composite
def tie_free_blocks(draw):
    """A (rows, n) block of continuous draws, so no row holds two equal
    times, with event flags, a per-row count of +inf pads (0 or 1: a lone
    pad ties with nothing) and a horizon. Some blocks hold -0.0."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.exponential(1.0, (rows, n))
    if draw(st.booleans()):
        times[:, rng.integers(n)] = -0.0
    events = rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    pads = np.zeros(rows, dtype=np.int64)
    if n > 1:  # a row keeps at least one sample of its own
        pads[:] = rng.random(rows) < 0.5
    a = draw(st.sampled_from([0.0, 0.5, 1.0, 100.0]))
    return times, events, pads, a


def tie_group_block(times, events, pads):
    """The block, with its per-row pad counts, plus one extra row holding a
    tie, which sends every row of it down the tie-group path. A block of
    width 1 cannot hold a tie, so its rows are first widened by one +inf pad
    each, which the fit leaves out."""
    rows, n = times.shape
    if n == 1:
        times = np.hstack([times, np.full((rows, 1), np.inf)])
        events = np.hstack([events, np.zeros((rows, 1), dtype=bool)])
        pads = pads + 1
    width = times.shape[1]
    return (np.vstack([times, np.ones(width)]), np.vstack([events, np.ones(width, dtype=bool)]),
            np.append(pads, 0)[:, None])


class TestTieFreeBranch:
    """``_product_limit`` fits a block whose rows hold no tied times with one
    group per sample; every row must come out of it as it comes out of the
    tie-group path, bit for bit."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(tie_free_blocks())
    def test_equals_the_tie_group_path(self, block):
        times, events, pads, a = block
        rows, n = times.shape
        padded = times.copy()
        padded[pads == 1, -1] = np.inf
        padded_events = events & (padded < np.inf)
        assert not (np.diff(np.sort(padded, axis=1), axis=1) == 0).any()
        alone = _product_limit(padded, padded_events, pads[:, None])
        forced = _product_limit(*tie_group_block(padded, padded_events, pads))
        for name, got, want in zip(("t", "drop", "at_risk", "deaths", "surv"), alone, forced):
            want = want[:rows, :n]
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

        # Without pads: rmst_km_batch's value-only integral against the
        # tie-group fit and its full integral, and fit_km_arrays row by row.
        got = rmst_km_batch(times, events, a)
        forced = tie_group_block(times, events, np.zeros(rows, dtype=np.int64))
        assert got.tobytes() == _restricted_rows(*forced, a)[1][:rows].tobytes()
        t, drop, at_risk, deaths, surv = (x[:rows, :n] for x in _product_limit(*forced))
        for row in range(rows):
            curve = fit_km_arrays(times[row], events[row])
            assert got[row] == rmst(curve, a).value
            at = drop[row]
            for g, w in zip((curve.drop_times, curve.survival_values, curve.at_risk,
                             curve.deaths), (t[row, at], surv[row, at], at_risk[row, at],
                                             deaths[row, at])):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_width_one_and_lone_pads(self):
        t, drop, at_risk, deaths, surv = _product_limit(
            np.array([[0.0], [-0.0], [2.0]]), np.array([[True], [False], [True]]))
        assert t.tobytes() == np.array([[0.0], [0.0], [2.0]]).tobytes()
        assert drop.ravel().tolist() == [True, False, True]
        assert at_risk.tolist() == [[1], [1], [1]]
        assert deaths.tolist() == [[1], [0], [1]]
        assert surv.ravel().tolist() == [0.0, 1.0, 0.0]
        assert rmst_km_batch([[3.0], [0.5]], [[True], [False]], 1.0).tolist() == [1.0, 1.0]

        # A lone pad is at risk 0 and must not divide by it.
        times = np.array([[0.5, np.inf], [0.25, 0.75]])
        events = np.array([[True, False], [False, True]])
        _, drop, at_risk, deaths, surv = _product_limit(times, events, np.array([[1], [0]]))
        assert at_risk.tolist() == [[1, 0], [2, 1]]
        assert surv.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def restricted_moments_reference(curve, a):
    """Restricted mean and second moment over [0, a] of a fitted curve: its
    rectangles built one by one in plain Python floats from ``drop_times``
    and ``survival_values``, each moment summed exactly by ``math.fsum``."""
    left, s = 0.0, 1.0
    areas, seconds = [], []
    for t, value in zip(curve.drop_times.tolist(), curve.survival_values.tolist()):
        if t >= a:
            break
        areas.append(s * (t - left))
        seconds.append(s * (t * t - left * left))
        left, s = t, value
    areas.append(s * (a - left))
    seconds.append(s * (a * a - left * left))
    return math.fsum(areas), math.fsum(seconds)


class TestRestrictedMeanReference:
    """``rmst``, ``rmst_km_batch`` and ``_restricted_rows`` (the KM metrics'
    block fit) against ``restricted_moments_reference``. The terms are the
    same floats on both sides and the reference sums them exactly, so the
    only error left is numpy's summation of k non-negative terms, which
    pairwise summation keeps near log2(k) ulp: the 1e-12 relative bound
    holds with room up to k = 10**5, and a zero reference must be met
    exactly."""

    BOUND = 1e-12

    @staticmethod
    def _rows():
        rng = np.random.default_rng(21)
        rows = [(np.array([5.0]), np.array([True])), (np.array([5.0]), np.array([False]))]
        for n in (2, 9, 130, 1000, 100_000):
            events = rng.random(n) < 0.6
            rows.append((rng.exponential(30.0, n), events))
            rows.append((rng.integers(0, 100, n).astype(float), events))  # ties
        return rows

    def _close(self, got, want):
        assert abs(got - want) <= self.BOUND * want, (got, want)

    # 0, inside the data (on a drop time of the tied rows), beyond it
    @pytest.mark.parametrize("a", [0.0, 20.0, 1e4])
    def test_every_path_matches_the_exact_sum(self, a):
        rows = self._rows()
        for times, events in rows:
            value, second = restricted_moments_reference(fit_km_arrays(times, events), a)
            self._close(rmst(fit_km_arrays(times, events), a).value, value)
            self._close(rmst_km_batch(times[None], events[None], a)[0], value)
            _, got_value, got_second, _, _ = _restricted_rows(times[None], events[None], 0, a)
            self._close(got_value[0], value)
            self._close(got_second[0], second)

        # The rows below 10**5 samples in one block, padded with +inf
        # censorings to one width, as the KM metrics fit them.
        small = [r for r in rows if r[0].size < 100_000]
        counts = np.array([t.size for t, _ in small])
        width = counts.max()
        times = np.full((counts.size, width), np.inf)
        events = np.zeros((counts.size, width), dtype=bool)
        for i, (t, e) in enumerate(small):
            times[i, : t.size], events[i, : t.size] = t, e
        _, got_value, got_second, _, _ = _restricted_rows(times, events, width - counts, a)
        for (t, e), v, m in zip(small, got_value, got_second):
            value, second = restricted_moments_reference(fit_km_arrays(t, e), a)
            self._close(v, value)
            self._close(m, second)


class TestCSVExport:
    def test_leading_row_and_drops(self, tmp_path):
        curve = fit_km([S(1, True), S(2, False), S(3, True)])
        out = tmp_path / "surv.csv"
        curve.to_csv(out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,S,n_at_risk,d"
        assert rows[1].startswith("0.0,1.0,3,0")
        assert len(rows) == 2 + curve.drop_times.size
