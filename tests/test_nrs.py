"""Unit tests for Algorithm 1 (Next Record Set creation) and k-means."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factors import order_sequentially, set_variation
from repro.core.nrs import (
    _seed_centers, elbow_k, kmeans, next_record_set, record_sets_for_block,
)
from repro.core.records import Record
from repro.embed.hashing import embed_text, tokens


def _rec(rid, text):
    return Record(rid=rid, text=text, vec=embed_text(text), tokens=tokens(text))


@pytest.fixture(scope="module")
def three_groups():
    """12 records in 3 textual groups of 4."""
    recs = []
    rid = 0
    for stem in ("alpha beta gamma", "delta epsilon zeta", "eta theta iota"):
        for k in range(4):
            recs.append(_rec(rid, f"{stem} item{k}"))
            rid += 1
    return recs


class TestKMeans:
    def test_labels_shape(self):
        vecs = np.random.default_rng(0).normal(size=(20, 8))
        labels, inertia = kmeans(vecs, 3, seed=0)
        assert labels.shape == (20,)
        assert set(labels) <= {0, 1, 2}
        assert inertia >= 0

    def test_k_equals_n(self):
        vecs = np.random.default_rng(0).normal(size=(4, 4))
        labels, inertia = kmeans(vecs, 4, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-9)

    def test_invalid_k(self):
        vecs = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(vecs, 0)
        with pytest.raises(ValueError):
            kmeans(vecs, 4)

    def test_separable_clusters_found(self):
        g = np.random.default_rng(1)
        vecs = np.vstack(
            [g.normal(0, 0.05, (10, 3)), g.normal(5, 0.05, (10, 3))]
        )
        labels, _ = kmeans(vecs, 2, seed=0)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_deterministic(self):
        vecs = np.random.default_rng(2).normal(size=(15, 4))
        a = kmeans(vecs, 3, seed=7)
        b = kmeans(vecs, 3, seed=7)
        assert np.array_equal(a[0], b[0])


class TestElbow:
    def test_bounds(self):
        vecs = np.random.default_rng(0).normal(size=(30, 4))
        k = elbow_k(vecs, k_max=8)
        assert 2 <= k <= 8

    def test_tiny_input(self):
        assert elbow_k(np.zeros((2, 3))) in (1, 2)

    def test_clear_structure(self):
        g = np.random.default_rng(3)
        vecs = np.vstack(
            [g.normal(c * 10, 0.1, (12, 2)) for c in range(3)]
        )
        assert elbow_k(vecs, k_max=6) in (2, 3, 4)


class TestNextRecordSet:
    def test_small_remaining_takes_all(self, three_groups):
        few = three_groups[:5]
        rset, rest = next_record_set(few, s_s=9, s_d=4)
        assert {r.rid for r in rset} == {r.rid for r in few}
        assert rest == []

    def test_respects_set_size(self, three_groups):
        rset, rest = next_record_set(three_groups, s_s=9, s_d=4)
        assert len(rset) == 9
        assert len(rest) == 3

    def test_partition_no_overlap(self, three_groups):
        rset, rest = next_record_set(three_groups, s_s=9, s_d=4)
        assert {r.rid for r in rset} | {r.rid for r in rest} == {
            r.rid for r in three_groups
        }
        assert not ({r.rid for r in rset} & {r.rid for r in rest})

    def test_invalid_params(self, three_groups):
        with pytest.raises(ValueError):
            next_record_set(three_groups, s_s=1)
        with pytest.raises(ValueError):
            next_record_set(three_groups, s_s=9, s_d=0)

    def test_empty_remaining(self):
        assert next_record_set([], 9, 4) == ([], [])


class TestRecordSetsForBlock:
    def test_covers_block_exactly_once(self, three_groups):
        sets = record_sets_for_block(three_groups, 9, 4)
        flat = [r.rid for s in sets for r in s]
        assert sorted(flat) == sorted(r.rid for r in three_groups)

    def test_set_sizes(self, three_groups):
        sets = record_sets_for_block(three_groups, 5, 2)
        assert all(len(s) <= 5 for s in sets)

    def test_sequential_grouping_tendency(self, three_groups):
        # within a full set, similar (same-stem) records should mostly
        # sit next to one another after chain ordering
        sets = record_sets_for_block(three_groups, 9, 3, seed=1)
        big = max(sets, key=len)
        stems = [r.text.split()[0] for r in big]
        switches = sum(1 for i in range(len(stems) - 1) if stems[i] != stems[i + 1])
        assert switches <= len(set(stems)) + 1

    def test_single_record_block(self, three_groups):
        sets = record_sets_for_block(three_groups[:1], 9, 4)
        assert sets == [[three_groups[0]]]


# -- references: k-means, elbow and NRS as first written (one seeding
# per fit, a refit of the chosen k, a top-up that tries every record)


def _seeding_reference(vecs, k, seed):
    n = vecs.shape[0]
    g = np.random.default_rng(seed)
    centers = [vecs[int(g.integers(0, n))]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((vecs - c) ** 2, axis=1) for c in centers], axis=0
        )
        tot = d2.sum()
        probs = d2 / tot if tot > 0 else np.full(n, 1.0 / n)
        centers.append(vecs[int(g.choice(n, p=probs))])
    return np.stack(centers)


def _kmeans_reference(vecs, k, seed=0, iters=20):
    n = vecs.shape[0]
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    c = _seeding_reference(vecs, k, seed)
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                c[j] = vecs[mask].mean(axis=0)
    inertia = float(((vecs - c[labels]) ** 2).sum())
    return labels, inertia


def _elbow_k_reference(vecs, k_max=8, seed=0):
    n = vecs.shape[0]
    k_max = min(k_max, n)
    if k_max <= 2:
        return max(1, k_max)
    inertias = [_kmeans_reference(vecs, k, seed)[1] for k in range(1, k_max + 1)]
    best_k, best_bend = 2, -np.inf
    for i in range(1, k_max - 1):
        bend = inertias[i - 1] - 2 * inertias[i] + inertias[i + 1]
        if bend > best_bend:
            best_bend, best_k = bend, i + 1
    return best_k


def _next_record_set_reference(remaining, s_s=9, s_d=4, seed=0):
    if not remaining:
        return [], []
    if len(remaining) <= s_s:
        return order_sequentially(remaining), []
    vecs = np.stack([r.vec for r in remaining])
    k = _elbow_k_reference(vecs, k_max=min(8, len(remaining)), seed=seed)
    labels, _ = _kmeans_reference(vecs, k, seed=seed)
    target = max(1, s_s // s_d)
    chosen, chosen_labels = [], []
    taken = np.zeros(len(remaining), dtype=bool)
    centroids = {
        j: vecs[labels == j].mean(axis=0) for j in range(k) if (labels == j).any()
    }
    for j in sorted(centroids):
        idx = np.where((labels == j) & ~taken)[0]
        if len(chosen) >= s_s or len(idx) < target:
            continue
        room = s_s - len(chosen)
        d = np.sum((vecs[idx] - centroids[j]) ** 2, axis=1)
        pick = idx[np.argsort(d)][: min(target, room)]
        for i in pick:
            chosen.append(remaining[i])
            chosen_labels.append(j)
            taken[i] = True
    while len(chosen) < s_s and not taken.all():
        best_i, best_var = None, np.inf
        for i in np.where(~taken)[0]:
            counts = np.bincount(np.asarray(chosen_labels + [int(labels[i])]))
            v = set_variation(counts[counts > 0])
            if v < best_var - 1e-12:
                best_var, best_i = v, int(i)
        chosen.append(remaining[best_i])
        chosen_labels.append(int(labels[best_i]))
        taken[best_i] = True
    rest = [r for i, r in enumerate(remaining) if not taken[i]]
    return order_sequentially(chosen), rest


def _record_sets_reference(block, s_s=9, s_d=4, seed=0):
    sets, remaining, guard = [], list(block), 0
    while remaining:
        rset, remaining = _next_record_set_reference(
            remaining, s_s, s_d, seed + guard
        )
        sets.append(rset)
        guard += 1
    return sets


@st.composite
def blocks(draw):
    """A block of 10–80 unit float32 rows, some of them exact copies
    (ties for k-means, the top-up and the chain order), maybe a zero row."""
    n = draw(st.integers(10, 80))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_centres = draw(st.integers(1, 10))
    centres = g.normal(size=(n_centres, 16))
    vecs = centres[g.integers(0, n_centres, n)] + g.normal(
        scale=draw(st.sampled_from([0.05, 0.3, 1.0])), size=(n, 16)
    )
    n_dup = draw(st.integers(0, n // 2))
    vecs[g.integers(0, n, n_dup)] = vecs[g.integers(0, n, n_dup)]
    if draw(st.booleans()):
        vecs[g.integers(0, n)] = 0.0
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs = (vecs / np.where(norms > 0, norms, 1.0)).astype(np.float32)
    rids = g.permutation(1000)[:n]
    return [
        Record(rid=int(rid), text="", vec=vecs[i], tokens=frozenset())
        for i, rid in enumerate(rids)
    ]


def _rids(sets):
    return [[r.rid for r in s] for s in sets]


class TestMatchesReference:
    """Shared seeding, the reused fit and the per-label top-up change
    no bit of the result."""

    @settings(max_examples=40, deadline=None)
    @given(blocks(), st.integers(0, 10_000))
    def test_kmeans_and_elbow(self, block, seed):
        vecs = np.stack([r.vec for r in block])
        for k in range(1, min(8, len(block)) + 1):
            labels, inertia = kmeans(vecs, k, seed)
            want_labels, want_inertia = _kmeans_reference(vecs, k, seed)
            assert np.array_equal(labels, want_labels)
            assert inertia == want_inertia
        assert elbow_k(vecs, 8, seed) == _elbow_k_reference(vecs, 8, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        blocks(), st.integers(0, 10_000),
        st.sampled_from([(9, 4), (9, 3), (5, 2), (12, 4), (2, 1)]),
    )
    def test_record_sets(self, block, seed, sizes):
        s_s, s_d = sizes
        rset, rest = next_record_set(block, s_s, s_d, seed)
        want_set, want_rest = _next_record_set_reference(block, s_s, s_d, seed)
        assert _rids([rset, rest]) == _rids([want_set, want_rest])
        assert _rids(record_sets_for_block(block, s_s, s_d, seed)) == _rids(
            _record_sets_reference(block, s_s, s_d, seed)
        )

    @settings(max_examples=40, deadline=None)
    @given(blocks(), st.integers(0, 10_000))
    def test_seeding_is_a_prefix(self, block, seed):
        vecs = np.stack([r.vec for r in block])
        k_max = min(8, len(block))
        full = _seed_centers(vecs, k_max, seed)
        assert full.tobytes() == _seeding_reference(vecs, k_max, seed).tobytes()
        for k in range(1, k_max + 1):
            assert _seed_centers(vecs, k, seed).tobytes() == full[:k].tobytes()
