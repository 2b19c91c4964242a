import math

import pytest

from qcdeval.metrics import (
    INF,
    DetectionOutcome,
    SequenceMeta,
    add_samples,
    arl_samples,
    compute_metric,
    km_add,
    km_arl,
    lb_add,
    lb_arl,
    naive_arl,
)


def M(i, T, nu=INF):
    return SequenceMeta(id=i, length_T=T, changepoint_nu=nu)


def O(i, tau):
    return DetectionOutcome(id=i, tau=tau)


HAND_ARL_METAS = [M("a", 10), M("b", 10, 5.0), M("c", 6)]
HAND_ARL_OUTS = [O("a", 3.0), O("b", INF), O("c", INF)]

HAND_ADD_METAS = [M("A", 10, 2.0), M("B", 8, 3.0)]
HAND_ADD_OUTS = [O("A", 4.0), O("B", INF)]


class TestSampleConstruction:
    def test_arl_hand_cases(self):
        samples = arl_samples(HAND_ARL_METAS, HAND_ARL_OUTS)
        assert [(s.time, s.event) for s in samples] == [
            (3.0, True),
            (5.0, False),
            (6.0, False),
        ]

    def test_arl_tie_is_censored(self):
        samples = arl_samples([M("x", 10, 4.0)], [O("x", 4.0)])
        assert [(s.time, s.event) for s in samples] == [(4.0, False)]

    def test_add_hand_cases(self):
        samples = add_samples(HAND_ADD_METAS, HAND_ADD_OUTS)
        assert [(s.time, s.event) for s in samples] == [(2.0, True), (5.0, False)]

    def test_add_excludes_false_alarm(self):
        assert add_samples([M("x", 9, 1.0)], [O("x", 0.0)]) == []

    def test_add_zero_delay_event(self):
        samples = add_samples([M("x", 9, 3.0)], [O("x", 3.0)])
        assert [(s.time, s.event) for s in samples] == [(0.0, True)]

    def test_id_mismatch_errors(self):
        with pytest.raises(ValueError):
            arl_samples([M("a", 5)], [O("b", 1.0)])
        with pytest.raises(ValueError):
            arl_samples([M("a", 5), M("a", 5)], [O("a", 1.0), O("a", 1.0)])
        with pytest.raises(ValueError):
            arl_samples([M("a", 5)], [O("a", 7.0)])  # tau beyond length


class TestHandEstimates:
    def test_km_arl_is_five(self):
        est = km_arl(HAND_ARL_METAS, HAND_ARL_OUTS)
        assert est.value == pytest.approx(5.0, abs=1e-12)
        assert est.upper_limit == 6.0
        assert est.n_used == 3

    def test_km_add_is_three_point_five(self):
        est = km_add(HAND_ADD_METAS, HAND_ADD_OUTS)
        assert est.value == pytest.approx(3.5, abs=1e-12)
        assert est.upper_limit == 5.0

    def test_lb_arl_uses_only_no_change_alarms(self):
        est = lb_arl(HAND_ARL_METAS, HAND_ARL_OUTS)
        assert est.value == 3.0
        assert est.n_used == 1
        assert est.sem == 0.0

    def test_lb_add(self):
        est = lb_add(HAND_ADD_METAS, HAND_ADD_OUTS)
        assert est.value == 2.0
        assert est.n_used == 1

    def test_naive_includes_false_alarms(self):
        metas = [M("x", 10), M("y", 10, 5.0)]
        outs = [O("x", 3.0), O("y", 2.0)]
        assert naive_arl(metas, outs).value == 2.5
        assert lb_arl(metas, outs).value == 3.0

    def test_single_censored_extrapolates(self):
        est = km_arl([M("x", 7)], [O("x", INF)])
        assert est.value == 7.0
        assert est.extrapolation_flag


class TestUndefinedCases:
    def test_lb_arl_undefined_when_all_change(self):
        est = lb_arl([M("x", 5, 2.0)], [O("x", 3.0)])
        assert est.value is None and est.n_used == 0

    def test_lb_add_undefined(self):
        est = lb_add([M("x", 5)], [O("x", 3.0)])
        assert est.value is None

    def test_naive_undefined(self):
        est = naive_arl([M("x", 5, 1.0)], [O("x", 2.0)])
        assert est.value is None

    def test_km_add_undefined_without_eligible(self):
        est = km_add([M("x", 5)], [O("x", 3.0)])
        assert est.value is None

    def test_serialization_nulls(self):
        est = lb_arl([M("x", 5, 2.0)], [O("x", 3.0)])
        obj = est.to_json()
        assert obj["value"] is None and obj["sem"] is None


class TestInvariants:
    def test_light_censoring_reduction(self):
        metas = [M(f"s{i}", 100) for i in range(6)]
        outs = [O(f"s{i}", float(3 + 7 * i)) for i in range(6)]
        km = km_arl(metas, outs).value
        lb = lb_arl(metas, outs).value
        nv = naive_arl(metas, outs).value
        assert km == pytest.approx(lb, abs=1e-12)
        assert km == pytest.approx(nv, abs=1e-12)

    def test_naive_selection_superset_of_lb(self):
        metas = [M("a", 10), M("b", 10, 4.0), M("c", 10, 2.0), M("d", 10)]
        outs = [O("a", 2.0), O("b", 1.0), O("c", 5.0), O("d", INF)]
        lb_set = {
            o.id
            for m, o in zip(metas, outs)
            if m.changepoint_nu == INF and o.tau != INF
        }
        naive_set = {
            o.id for m, o in zip(metas, outs) if o.tau < m.changepoint_nu
        }
        assert lb_set <= naive_set
        assert naive_arl(metas, outs).n_used == len(naive_set)
        assert lb_arl(metas, outs).n_used == len(lb_set)

    def test_km_invariant_to_late_censoring(self):
        metas = [M("a", 10), M("b", 10)]
        outs = [O("a", 2.0), O("b", 4.0)]
        base = km_arl(metas, outs, upper_limit=4.0).value
        more = km_arl(metas + [M("c", 9)], outs + [O("c", INF)], upper_limit=4.0)
        # the extra sequence is censored at 9 > a = 4: it enlarges every risk
        # set but introduces no event, so the curve on [0, 4] shifts up
        # uniformly; the drop times are unchanged and KM stays >= base
        assert more.value >= base

    def test_compute_metric_dispatch(self):
        est = compute_metric("km-arl", HAND_ARL_METAS, HAND_ARL_OUTS)
        assert est.value == pytest.approx(5.0)
        with pytest.raises(ValueError):
            compute_metric("nope", HAND_ARL_METAS, HAND_ARL_OUTS)

    def test_meta_validation(self):
        with pytest.raises(ValueError):
            SequenceMeta(id="x", length_T=0, changepoint_nu=INF)
        with pytest.raises(ValueError):
            SequenceMeta(id="x", length_T=5, changepoint_nu=-1.0)
        with pytest.raises(ValueError):
            SequenceMeta(id="x", length_T=5, changepoint_nu=2.5)
        # A changepoint past the end fails on the label, naming the id, not
        # later on a negative delay sample.
        with pytest.raises(ValueError, match="^a: changepoint 5.0 does not index"):
            km_add([SequenceMeta("a", 3, 5.0)], [DetectionOutcome("a", INF)])
