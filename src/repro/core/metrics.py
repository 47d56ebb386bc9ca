"""Clustering quality metrics exactly as the paper defines them (§6.1).

* ACC — Eq. 2–3: ground-truth clusters are re-ordered (matched) to the
  predicted clusters by intersection size, one GT cluster per predicted
  cluster; ACC is the fraction of records falling in their cluster's
  matched GT cluster.
* FP-measure — Eq. 4–7: harmonic mean of purity and inverse-purity.
* NMI — Eq. 8–10.
* ARI — Eq. 11 (standard adjusted Rand index).

All functions take ``pred`` and ``truth`` as record_id → label maps
over the same record set.
"""
from __future__ import annotations

from collections import Counter
from math import comb, log

import numpy as np


def _check(pred: dict[int, int], truth: dict[int, int]) -> None:
    if set(pred) != set(truth):
        missing = set(truth) ^ set(pred)
        raise ValueError(f"pred/truth record sets differ on {len(missing)} ids")
    if not pred:
        raise ValueError("empty clustering")


def _clusters(assign: dict[int, int]) -> list[set[int]]:
    out: dict[int, set[int]] = {}
    for rid, lab in assign.items():
        out.setdefault(lab, set()).add(rid)
    return list(out.values())


def acc(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 2–3: greedy one-to-one matching by intersection size."""
    _check(pred, truth)
    xs, ys = _clusters(pred), _clusters(truth)
    inters = [
        (len(x & y), xi, yi)
        for xi, x in enumerate(xs)
        for yi, y in enumerate(ys)
        if x & y
    ]
    inters.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_x: set[int] = set()
    used_y: set[int] = set()
    correct = 0
    for size, xi, yi in inters:
        if xi in used_x or yi in used_y:
            continue
        used_x.add(xi)
        used_y.add(yi)
        correct += size
    return correct / len(pred)


def purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 4 (with Eq. 6's overlap): Σ max-overlap / |R|."""
    _check(pred, truth)
    xs, ys = _clusters(pred), _clusters(truth)
    total = sum(max(len(x & y) for y in ys) for x in xs)
    return total / len(pred)


def inverse_purity(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 5: purity with the roles of pred and truth swapped."""
    return purity(truth, pred)


def fp_measure(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 7: harmonic mean of purity and inverse-purity."""
    p, ip = purity(pred, truth), inverse_purity(pred, truth)
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)


def nmi(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 8–10: normalised mutual information."""
    _check(pred, truth)
    n = len(pred)
    xs, ys = _clusters(pred), _clusters(truth)

    def h(cs: list[set[int]]) -> float:
        return -sum(
            (len(c) / n) * log(len(c) / n) for c in cs if len(c) > 0
        )

    hx, hy = h(xs), h(ys)
    if hx == 0 and hy == 0:
        return 1.0  # both trivial single-cluster partitions: identical
    mi = 0.0
    for x in xs:
        for y in ys:
            nij = len(x & y)
            if nij:
                mi += (nij / n) * log((nij * n) / (len(x) * len(y)))
    denom = hx + hy
    return (2.0 * mi / denom) if denom > 0 else 0.0


def ari(pred: dict[int, int], truth: dict[int, int]) -> float:
    """Eq. 11: adjusted Rand index from the contingency table."""
    _check(pred, truth)
    n = len(pred)
    xs, ys = _clusters(pred), _clusters(truth)
    sum_ij = sum(comb(len(x & y), 2) for x in xs for y in ys)
    sum_a = sum(comb(len(x), 2) for x in xs)
    sum_b = sum(comb(len(y), 2) for y in ys)
    nc2 = comb(n, 2)
    if nc2 == 0:
        return 1.0
    expected = sum_a * sum_b / nc2
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # degenerate: both partitions all-singletons etc.
    return (sum_ij - expected) / (max_index - expected)


def pair_confusion(
    pred: dict[int, int], truth: dict[int, int]
) -> dict[str, int]:
    """TP/FP/FN/TN over record pairs (Appendix A.9 confusion matrices),
    from cluster sizes: TP = Σ C(n_ij, 2) over the contingency cells."""
    _check(pred, truth)

    def same_pairs(labels) -> int:
        return sum(comb(c, 2) for c in Counter(labels).values())

    tp = same_pairs((pred[r], truth[r]) for r in pred)
    same_pred = same_pairs(pred.values())
    same_truth = same_pairs(truth.values())
    return {
        "tp": tp,
        "fp": same_pred - tp,
        "fn": same_truth - tp,
        "tn": comb(len(pred), 2) - same_pred - same_truth + tp,
    }


def all_metrics(pred: dict[int, int], truth: dict[int, int]) -> dict[str, float]:
    """The four headline metrics in one call."""
    return {
        "acc": acc(pred, truth),
        "fp": fp_measure(pred, truth),
        "nmi": nmi(pred, truth),
        "ari": ari(pred, truth),
    }


def clusters_to_assignment(clusters: list[list[int]]) -> dict[int, int]:
    """Cluster list → record_id → label map (labels are cluster ranks)."""
    out: dict[int, int] = {}
    for lab, c in enumerate(clusters):
        for rid in c:
            if rid in out:
                raise ValueError(f"record {rid} appears in two clusters")
            out[rid] = lab
    return out
