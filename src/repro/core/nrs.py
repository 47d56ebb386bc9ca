"""Next Record Set creation — Algorithm 1 (NRS).

Builds one record set from the remaining records of a block, honouring
the optimal key-factor configuration from §4.2: set size ``Ss``,
diversity ``Sd`` (via elbow-method k-means pseudo-clusters), minimal
set variation, and sequential ordering of similar records.

Only embeddings are used — no ground truth. k-means is a small local
NumPy implementation (blocks hold at most a few hundred records, and
sklearn is out of scope for the offline container).

The elbow sweep seeds once: each k-means++ draw depends only on the
centres drawn before it and Lloyd's iterations never touch the
generator, so the seeding for ``k`` is the first ``k`` rows of the
seeding for ``k_max``. Every fit of the sweep therefore equals
``kmeans(vecs, k, seed)``, and NRS uses the chosen fit (labels and
centroids) directly instead of fitting it again.
"""
from __future__ import annotations

import numpy as np

from .factors import order_sequentially, set_variation
from .records import Record

#: one k-means fit: (labels, inertia, centres)
_Fit = tuple[np.ndarray, float, np.ndarray]


def _seed_centers(vecs: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++-style seeding → (k, dim) centres."""
    n = vecs.shape[0]
    g = np.random.default_rng(seed)
    centers = [vecs[int(g.integers(0, n))]]
    d2 = None  # squared distance to the nearest centre so far
    for _ in range(k - 1):
        dc = np.sum((vecs - centers[-1]) ** 2, axis=1)
        d2 = dc if d2 is None else np.minimum(d2, dc)
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        centers.append(vecs[int(g.choice(n, p=probs))])
    return np.stack(centers)


def _lloyd(vecs: np.ndarray, c: np.ndarray, iters: int = 20) -> _Fit:
    """Lloyd's algorithm from centres ``c`` (updated in place)."""
    k = c.shape[0]
    labels = np.zeros(vecs.shape[0], dtype=int)
    for it in range(iters):
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels) and it > 0:
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                c[j] = vecs[mask].mean(axis=0)
    inertia = float(((vecs - c[labels]) ** 2).sum())
    return labels, inertia, c


def kmeans(
    vecs: np.ndarray, k: int, seed: int = 0, iters: int = 20
) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++-style init → (labels, inertia)."""
    n = vecs.shape[0]
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    labels, inertia, _ = _lloyd(vecs, _seed_centers(vecs, k, seed), iters)
    return labels, inertia


def _sweep(vecs: np.ndarray, k_max: int, seed: int) -> list[_Fit]:
    """The fits for k = 1..k_max, all from one shared seeding."""
    seeds = _seed_centers(vecs, k_max, seed)
    return [_lloyd(vecs, seeds[:k].copy()) for k in range(1, k_max + 1)]


def _elbow(inertias: list[float]) -> int:
    """k with the sharpest bend of the inertia curve of k = 1, 2, ..."""
    # second difference of the inertia curve; +1 because ks start at 1
    best_k, best_bend = 2, -np.inf
    for i in range(1, len(inertias) - 1):
        bend = inertias[i - 1] - 2 * inertias[i] + inertias[i + 1]
        if bend > best_bend:
            best_bend, best_k = bend, i + 1
    return best_k


def elbow_k(vecs: np.ndarray, k_max: int = 8, seed: int = 0) -> int:
    """Elbow method: k with the sharpest inertia-curve bend."""
    k_max = min(k_max, vecs.shape[0])
    if k_max <= 2:
        return max(1, k_max)
    return _elbow([inertia for _, inertia, _ in _sweep(vecs, k_max, seed)])


def next_record_set(
    remaining: list[Record], s_s: int = 9, s_d: int = 4, seed: int = 0
) -> tuple[list[Record], list[Record]]:
    """Algorithm 1: build the next record set; return (set, new remaining).

    If few records remain they are all taken (chain-ordered). Otherwise
    elbow+k-means estimates the block's diversity, ``Ss/Sd`` records
    are drawn from each sufficiently large pseudo-cluster, the set is
    topped up minimising the Eq. 1 variation, and finally similar
    records are ordered consecutively.
    """
    if s_s < 2 or s_d < 1:
        raise ValueError("need Ss >= 2 and Sd >= 1")
    if not remaining:
        return [], []
    if len(remaining) <= s_s:  # Lines 2–7
        return order_sequentially(remaining), []

    vecs = np.stack([r.vec for r in remaining])
    # more than Ss >= 2 records remain, so the sweep spans k = 1..≥3
    fits = _sweep(vecs, min(8, len(remaining)), seed)
    k = _elbow([inertia for _, inertia, _ in fits])
    labels, _, centers = fits[k - 1]
    target = max(1, s_s // s_d)

    chosen: list[Record] = []
    taken = np.zeros(len(remaining), dtype=bool)
    # a nonempty pseudo-cluster's Lloyd centre is its members' mean
    for j in np.unique(labels):  # Lines 12–17
        idx = np.where((labels == j) & ~taken)[0]
        if len(chosen) >= s_s or len(idx) < target:
            continue
        room = s_s - len(chosen)
        # records closest to their pseudo-cluster centroid first
        d = np.sum((vecs[idx] - centers[j]) ** 2, axis=1)
        pick = idx[np.argsort(d)][: min(target, room)]
        chosen.extend(remaining[i] for i in pick)
        taken[pick] = True

    # Lines 18–21: top up minimising the variation increase. Eq. 1
    # depends only on the added record's pseudo-label, so the first
    # open record of each label stands for all of its label.
    counts = np.bincount(labels[taken], minlength=k)
    while len(chosen) < s_s and not taken.all():
        open_idx = np.where(~taken)[0]
        _, first = np.unique(labels[open_idx], return_index=True)
        best_i, best_var = None, np.inf
        for i in np.sort(open_idx[first]):
            trial = counts.copy()
            trial[labels[i]] += 1
            v = set_variation(trial[trial > 0])
            if v < best_var - 1e-12:
                best_var, best_i = v, int(i)
        assert best_i is not None
        chosen.append(remaining[best_i])
        counts[labels[best_i]] += 1
        taken[best_i] = True

    rset = order_sequentially(chosen)  # Line 22
    rest = [r for i, r in enumerate(remaining) if not taken[i]]
    return rset, rest


def record_sets_for_block(
    block: list[Record], s_s: int = 9, s_d: int = 4, seed: int = 0
) -> list[list[Record]]:
    """Partition a block into record sets by repeated NRS calls."""
    sets = []
    remaining = list(block)
    guard = 0
    while remaining:
        rset, remaining = next_record_set(remaining, s_s, s_d, seed + guard)
        if not rset:
            break
        sets.append(rset)
        guard += 1
        if guard > len(block) + 1:  # safety: NRS must always make progress
            raise RuntimeError("NRS failed to shrink the block")
    return sets
