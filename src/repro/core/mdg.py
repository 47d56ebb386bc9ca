"""Misclustering Detection Guardrail — Algorithm 2 (MDG) + regeneration.

Two layers of defence against LLM hallucination (§5.2):

1. **Structural check** — the output must contain exactly the input
   records, each once (catches dropped/duplicated records).
2. **Similarity check (Alg. 2)** — for every record, its intra-cluster
   similarity (min cosine to its own cluster) must not be lower than
   its inter-cluster similarity (max cosine to any other cluster);
   otherwise the record is flagged as misclustered.

**Record-set regeneration**: each misclustered record is relocated
immediately after the cluster it is most similar to, producing a more
sequentially-ordered prompt, and the set is re-clustered. The best
attempt (fewest violations) wins; if the model never returns a
structurally valid answer, we fall back to all-singletons, which is
safe because hierarchical merging can still unite true duplicates
later.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from ..embed.similarity import cosine_matrix
from .records import Record

if TYPE_CHECKING:  # avoid a core<->llm import cycle at runtime
    from ..llm.simulated import SimulatedLLM


def structurally_valid(
    input_records: list[Record], clusters: list[list[Record]]
) -> bool:
    """True iff the clustering is a partition of exactly the input set."""
    out_ids = [r.rid for c in clusters for r in c]
    return len(out_ids) == len(set(out_ids)) and set(out_ids) == {
        r.rid for r in input_records
    }


#: flag tolerance: on noisy data a correct clustering routinely has a
#: record marginally closer to a confusable foreign record; re-asking
#: for every such tie would blow the ~10% overhead budget of Table 8
DEFAULT_MARGIN = 0.05

#: absolute grounding floor: a record whose similarity to one of its
#: claimed cluster-mates is below this cannot plausibly be a duplicate
#: of it — catches hallucinated merge-everything outputs, which have
#: no "other cluster" for the relative rule to compare against
INTRA_FLOOR = 0.18


def misclustered(
    clusters: list[list[Record]], margin: float | None = None
) -> list[Record]:
    """Alg. 2: records whose intra-cluster sim < inter-cluster sim
    (by more than ``margin``), plus records whose intra-cluster sim
    falls below the absolute grounding floor."""
    if margin is None:
        margin = DEFAULT_MARGIN  # late-bound so tests can tune it
    flat = [r for c in clusters for r in c]
    if len(flat) < 2:
        return []
    sims = cosine_matrix(np.stack([r.vec for r in flat]))
    pos = {r.rid: i for i, r in enumerate(flat)}
    bad: list[Record] = []
    for c in clusters:
        others = [r for oc in clusters if oc is not c for r in oc]
        for r in c:
            i = pos[r.rid]
            mates = [pos[m.rid] for m in c if m.rid != r.rid]
            intra = min(sims[i, j] for j in mates) if mates else None
            if intra is None:
                continue
            if intra < INTRA_FLOOR:
                bad.append(r)
                continue
            if others:
                inter = max(sims[i, pos[o.rid]] for o in others)
                if intra < inter - margin:
                    bad.append(r)
    return bad


def mdg_accepts(
    input_records: list[Record], clusters: list[list[Record]]
) -> bool:
    """Full guardrail verdict: structurally valid and no misclustering."""
    return structurally_valid(input_records, clusters) and not misclustered(
        clusters
    )


def regenerate_order(
    clusters: list[list[Record]], bad: list[Record]
) -> list[Record]:
    """Record-set regeneration (§5.2): move each misclustered record to
    sit immediately after its most similar *other* cluster."""
    flat = [r for c in clusters for r in c]
    sims = cosine_matrix(np.stack([r.vec for r in flat]))
    pos = {r.rid: i for i, r in enumerate(flat)}
    bad_ids = {r.rid for r in bad}

    # order = clusters in sequence, misclustered records removed ...
    order: list[list[Record]] = [
        [r for r in c if r.rid not in bad_ids] for c in clusters
    ]
    # ... then each bad record appended to its best-matching cluster
    for r in bad:
        best_ci, best_sim = 0, -np.inf
        for ci, c in enumerate(clusters):
            if any(m.rid == r.rid for m in c):
                continue  # "other clusters" only
            members = [m for m in order[ci] if m.rid != r.rid]
            if not members:
                continue
            s = max(sims[pos[r.rid], pos[m.rid]] for m in members)
            if s > best_sim:
                best_sim, best_ci = s, ci
        order[best_ci].append(r)
    return [r for c in order for r in c]


def guarded_retry(
    rsets: list[list[Record]],
    ask: Callable[[list[list[Record]], int], list[list[list[Record]]]],
    *,
    use_mdg: bool = True,
    max_retries: int = 1,
) -> list[list[list[Record]]]:
    """Cluster record sets under MDG, re-asking the rejected ones.

    ``ask(sets, attempt)`` returns one clustering per prompt in
    ``sets``; each attempt asks only the still-pending sets, each in
    its regenerated order. A structurally broken answer is re-drawn
    with MDG on; with MDG off (ablation mode, Table 8) the first answer
    is taken, a broken one repaired into a partition because downstream
    code requires one. Per set, the best attempt (fewest misclustered
    records) wins; a set that never got a structurally valid answer
    falls back to all-singletons.
    """
    best: dict[int, tuple[int, list[list[Record]]]] = {}
    order = list(rsets)
    pending = list(range(len(rsets)))
    for attempt in range(max_retries + 1):
        still: list[int] = []
        for i, clusters in zip(pending, ask([order[i] for i in pending], attempt)):
            valid = structurally_valid(rsets[i], clusters)
            if not use_mdg:
                best[i] = (0, clusters if valid else _repair(rsets[i], clusters))
                continue
            if not valid:
                still.append(i)  # fresh draw next attempt
                continue
            bad = misclustered(clusters)
            if i not in best or len(bad) < best[i][0]:
                best[i] = (len(bad), clusters)
            if bad:
                order[i] = regenerate_order(clusters, bad)
                still.append(i)
        pending = still
        if not pending:
            break
    return [
        best[i][1] if i in best else [[r] for r in rset]
        for i, rset in enumerate(rsets)
    ]


def cluster_with_guardrail(
    llm: "SimulatedLLM",
    records: list[Record],
    *,
    use_mdg: bool = True,
    max_retries: int = 1,
) -> list[list[Record]]:
    """In-context clustering of one record set, guarded by MDG: one
    call per attempt, salted with the attempt number."""

    def ask(sets, attempt):
        return [llm.cluster_records(s, salt=attempt) for s in sets]

    return guarded_retry(
        [records], ask, use_mdg=use_mdg, max_retries=max_retries
    )[0]


def cluster_batched(
    llm: "SimulatedLLM",
    rsets: list[list[Record]],
    batch_size: int,
    *,
    use_mdg: bool = True,
) -> list[list[list[Record]]]:
    """Guarded clustering with ``batch_size`` record sets per call
    (Appendix A.10). Rejected sets are re-asked in batches as well —
    falling back to one call per set would undo the batching saving."""

    def ask(sets, attempt):
        return [
            clusters
            for b0 in range(0, len(sets), batch_size)
            for clusters in llm.cluster_batch(
                sets[b0 : b0 + batch_size], salt=attempt * 10_000 + b0
            )
        ]

    return guarded_retry(rsets, ask, use_mdg=use_mdg)


def _repair(
    records: list[Record], clusters: list[list[Record]]
) -> list[list[Record]]:
    """Force a broken answer into a partition (no-MDG mode only)."""
    seen: set[int] = set()
    out: list[list[Record]] = []
    for c in clusters:
        kept = [r for r in c if r.rid not in seen]
        seen.update(r.rid for r in kept)
        if kept:
            out.append(kept)
    for r in records:
        if r.rid not in seen:
            out.append([r])
            seen.add(r.rid)
    return out
