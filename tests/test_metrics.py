"""Unit tests for the paper's clustering metrics (Eq. 2–11)."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    acc, all_metrics, ari, clusters_to_assignment, fp_measure,
    inverse_purity, nmi, pair_confusion, purity,
)


def _assign(labels):
    return {i: lab for i, lab in enumerate(labels)}


PERFECT = (_assign([0, 0, 1, 1, 2]), _assign([5, 5, 7, 7, 9]))
ALL_SINGLE = (_assign(range(6)), _assign([0, 0, 0, 1, 1, 1]))
ALL_MERGED = (_assign([0] * 6), _assign([0, 0, 0, 1, 1, 1]))


class TestAcc:
    def test_perfect(self):
        assert acc(*PERFECT) == 1.0

    def test_all_singletons(self):
        # one singleton per GT cluster can match -> 2 of 6 correct
        assert acc(*ALL_SINGLE) == pytest.approx(2 / 6)

    def test_all_merged(self):
        # the single predicted cluster matches one GT cluster (3 of 6)
        assert acc(*ALL_MERGED) == pytest.approx(3 / 6)

    def test_label_names_irrelevant(self):
        assert acc(_assign([9, 9, 4]), _assign([1, 1, 0])) == 1.0

    def test_partial(self):
        pred = _assign([0, 0, 0, 1])
        truth = _assign([0, 0, 1, 1])
        # cluster0->gt0 (2 correct), cluster1->gt1 (1 correct)
        assert acc(pred, truth) == pytest.approx(3 / 4)

    def test_mismatched_ids_raise(self):
        with pytest.raises(ValueError):
            acc({0: 0}, {1: 0})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            acc({}, {})


class TestPurity:
    def test_perfect(self):
        assert purity(*PERFECT) == 1.0

    def test_singletons_pure(self):
        assert purity(*ALL_SINGLE) == 1.0

    def test_merged_inverse_pure(self):
        assert inverse_purity(*ALL_MERGED) == 1.0

    def test_merged_purity(self):
        assert purity(*ALL_MERGED) == pytest.approx(3 / 6)

    def test_purity_inverse_duality(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert inverse_purity(pred, truth) == purity(truth, pred)


class TestFPMeasure:
    def test_perfect(self):
        assert fp_measure(*PERFECT) == 1.0

    def test_harmonic_of_purities(self):
        pred, truth = ALL_MERGED
        p, ip = purity(pred, truth), inverse_purity(pred, truth)
        expected = 2 / (1 / p + 1 / ip)
        assert fp_measure(pred, truth) == pytest.approx(expected)

    def test_between_min_and_max_purity(self):
        pred = _assign([0, 0, 1, 2, 2, 1])
        truth = _assign([0, 1, 1, 2, 0, 2])
        p, ip = purity(pred, truth), inverse_purity(pred, truth)
        fp = fp_measure(pred, truth)
        assert min(p, ip) - 1e-9 <= fp <= max(p, ip) + 1e-9


class TestNMI:
    def test_perfect(self):
        assert nmi(*PERFECT) == pytest.approx(1.0)

    def test_independent_labels_low(self):
        pred = _assign([0, 1, 0, 1, 0, 1, 0, 1])
        truth = _assign([0, 0, 1, 1, 0, 0, 1, 1])
        assert nmi(pred, truth) < 0.2

    def test_symmetric(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert nmi(pred, truth) == pytest.approx(nmi(truth, pred))

    def test_trivial_both_single_cluster(self):
        assert nmi(_assign([0, 0]), _assign([1, 1])) == 1.0


class TestARI:
    def test_perfect(self):
        assert ari(*PERFECT) == pytest.approx(1.0)

    def test_random_near_zero(self):
        pred = _assign([0, 1, 0, 1, 0, 1, 0, 1])
        truth = _assign([0, 0, 1, 1, 0, 0, 1, 1])
        assert abs(ari(pred, truth)) < 0.5

    def test_symmetric(self):
        pred = _assign([0, 0, 1, 1, 2, 2])
        truth = _assign([0, 1, 1, 2, 2, 0])
        assert ari(pred, truth) == pytest.approx(ari(truth, pred))

    def test_known_value(self):
        # sklearn-verified example: ARI([0,0,1,1],[0,0,1,2]) == 0.57...
        pred = _assign([0, 0, 1, 2])
        truth = _assign([0, 0, 1, 1])
        assert ari(pred, truth) == pytest.approx(0.5714285, abs=1e-5)


class TestPairConfusion:
    def test_perfect(self):
        pc = pair_confusion(*PERFECT)
        assert pc["fp"] == 0 and pc["fn"] == 0
        assert pc["tp"] == 2  # (0,1) and (2,3)

    def test_totals(self):
        pred, truth = ALL_MERGED
        pc = pair_confusion(pred, truth)
        n = len(pred)
        assert sum(pc.values()) == n * (n - 1) // 2

    def test_all_merged_counts(self):
        pc = pair_confusion(*ALL_MERGED)
        assert pc["tp"] == 6 and pc["fp"] == 9 and pc["fn"] == 0


def _pair_confusion_reference(pred, truth):
    """The O(n²) pair loop: every record pair classified directly."""
    rids = sorted(pred)
    tp = fp = fn = tn = 0
    for i in range(len(rids)):
        for k in range(i + 1, len(rids)):
            a, b = rids[i], rids[k]
            p_same = pred[a] == pred[b]
            t_same = truth[a] == truth[b]
            if p_same and t_same:
                tp += 1
            elif p_same:
                fp += 1
            elif t_same:
                fn += 1
            else:
                tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


class TestClustersToAssignment:
    def test_round_trip(self):
        clusters = [[1, 2], [3], [4, 5]]
        a = clusters_to_assignment(clusters)
        assert a[1] == a[2] != a[3]

    def test_duplicate_record_raises(self):
        with pytest.raises(ValueError):
            clusters_to_assignment([[1, 2], [2]])


@st.composite
def labelings(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pred = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    truth = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return _assign(pred), _assign(truth)


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_ranges(self, pt):
        pred, truth = pt
        m = all_metrics(pred, truth)
        assert 0.0 <= m["acc"] <= 1.0
        assert 0.0 <= m["fp"] <= 1.0
        assert -1e-9 <= m["nmi"] <= 1.0 + 1e-9
        assert -1.0 - 1e-9 <= m["ari"] <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_label_permutation_invariance(self, pt):
        pred, truth = pt
        remap = {lab: lab + 100 for lab in set(pred.values())}
        pred2 = {rid: remap[lab] for rid, lab in pred.items()}
        assert all_metrics(pred, truth) == all_metrics(pred2, truth)

    @settings(max_examples=60, deadline=None)
    @given(labelings())
    def test_self_clustering_is_perfect(self, pt):
        pred, _ = pt
        m = all_metrics(pred, pred)
        assert m["acc"] == 1.0 and m["fp"] == 1.0
        assert math.isclose(m["nmi"], 1.0)
        assert math.isclose(m["ari"], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(labelings())
    def test_pair_confusion_matches_pair_loop(self, pt):
        pred, truth = pt
        assert pair_confusion(pred, truth) == _pair_confusion_reference(
            pred, truth
        )
