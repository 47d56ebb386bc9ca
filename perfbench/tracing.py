"""Spans and counters recorded around calls into repro's layers.

Every span comes from outside the program: :func:`install_layers`
replaces each layer's public function with a timing wrapper in the
namespace its caller looks it up in (``repro.core.pipeline.
record_sets_for_block``, ``repro.core.nrs.kmeans`` as distinct from
``repro.blocking.lsh.kmeans``, ``repro.blocking.BLOCKERS["lsh"]``, ...),
and :meth:`Tracer.restore` puts the originals back. ``src/`` is never
edited.

Counts are observed at the same boundaries, from arguments and return
values. The work those observations cost runs inside ``trace.hook``
spans, so it never lands in a layer's self time.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory spans (name, start, end, parent) plus counters."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.state: dict = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object, bool]] = []

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        self.spans, self.counts, self.maxima, self.state = [], Counter(), {}, {}
        self._stack = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        wrapper that records span ``name`` around each call.

        ``before(*args, **kw)`` runs ahead of the call and
        ``after(result, *args, **kw)`` after it, both in ``trace.hook``.
        """
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                with self._span("trace.hook"):
                    before(*args, **kwargs)
            with self._span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                with self._span("trace.hook"):
                    after(out, *args, **kwargs)
            return out

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, is_dict))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        for owner, attr, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches = []

    # ------------------------------------------------------------ reading

    def self_times(self) -> Counter:
        """name → Σ (span duration − time covered by its child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def inclusive(self, name: str) -> float:
        """Σ durations of ``name`` spans not nested in another ``name``."""
        total = 0.0
        for _, start, end, parent in self._outermost(name):
            total += end - start
        return total

    def longest(self, name: str) -> float:
        return max(
            (end - start for _, start, end, _ in self._outermost(name)),
            default=0.0,
        )

    def _outermost(self, name: str):
        for rec in self.spans:
            p = rec[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if rec[0] == name and p < 0:
                yield rec


def install_layers(tr: Tracer) -> None:
    """Wrap each layer's functions where their callers look them up."""
    import numpy as np

    from repro import blocking
    from repro.blocking import lsh
    from repro.core import mdg, metrics, nrs, pipeline, records
    from repro.experiments import harness
    from repro.llm.simulated import SimulatedLLM

    # -- records / embedding
    tr.wrap(records, "build_records", "records.build")
    tr.wrap(records, "embed_batch", "embed.embed_batch")

    # -- LSH blocking
    def sig_stats(sigs, *a, **k):
        for b in range(sigs.shape[1]):
            _, sizes = np.unique(sigs[:, b], return_counts=True)
            tr.count("lsh.candidate_pairs", int((sizes * (sizes - 1) // 2).sum()))
            tr.peak("lsh.max_bucket", int(sizes.max(initial=0)))

    def block_stats(blocks, *a, **k):
        tr.count("lsh.blocks", len(blocks))
        tr.peak("lsh.max_block", max((len(b) for b in blocks), default=0))

    # one dict object is both ``repro.blocking.BLOCKERS`` and the name the
    # harness looks the blocker up under
    tr.wrap(blocking.BLOCKERS, "lsh", "lsh.blocks", after=block_stats)
    tr.wrap(lsh, "band_signatures", "lsh.band_signatures", after=sig_stats)
    tr.wrap(lsh, "blocks_from_edges", "lsh.components")
    tr.wrap(lsh, "split_oversized", "lsh.split")
    tr.wrap(lsh, "kmeans", "lsh.kmeans")
    tr.wrap(lsh, "purify_block", "lsh.purify")

    # -- NRS
    tr.wrap(
        pipeline, "record_sets_for_block", "nrs.record_sets",
        after=lambda sets, *a, **k: tr.count("nrs.sets", len(sets)),
    )
    tr.wrap(
        nrs, "elbow_k", "nrs.elbow_k",
        after=lambda *a, **k: tr.count("nrs.elbow_k_calls"),
    )
    tr.wrap(
        nrs, "kmeans", "nrs.kmeans",
        after=lambda *a, **k: tr.count("nrs.kmeans_calls"),
    )

    # -- simulated LLM (methods are looked up on the class)
    def answered(llm_records, clusters):
        tr.count("llm.answers")
        if not mdg.structurally_valid(llm_records, clusters):
            tr.count("llm.invalid_outputs")

    def single_call(clusters, llm, recs, *a, **k):
        tr.count("llm.cluster_calls")
        if "guard_calls" in tr.state:
            tr.state["guard_calls"] += 1
        answered(list(recs), clusters)

    def batch_call(answers, llm, sets, *a, **k):
        tr.count("llm.batch_calls")
        for s, clusters in zip(sets, answers):
            answered(list(s), clusters)

    tr.wrap(SimulatedLLM, "cluster_records", "llm.cluster", after=single_call)
    tr.wrap(SimulatedLLM, "cluster_batch", "llm.cluster", after=batch_call)

    # -- MDG
    def guard_start(*a, **k):
        tr.state["guard_calls"] = 0

    def guard_end(*a, **k):
        tr.count("mdg.guarded_sets")
        if tr.state.pop("guard_calls") == 1:
            tr.count("mdg.first_pass_sets")

    tr.wrap(
        pipeline, "cluster_with_guardrail", "mdg.guard",
        before=guard_start, after=guard_end,
    )
    tr.wrap(
        mdg, "misclustered", "mdg.misclustered",
        after=lambda bad, *a, **k: tr.count("mdg.flagged_records", len(bad)),
    )
    tr.wrap(
        mdg, "regenerate_order", "mdg.regenerate",
        after=lambda *a, **k: tr.count("mdg.regenerations"),
    )

    # -- CMR, and why each block stopped
    def round_built(sets, *a, **k):
        blk = tr.state["block"]
        blk["rounds"] += 1
        if not sets:
            blk["exit"] = "nopair"

    def merged(out, items, round_sets, *a, **k):
        n_merges = out[1]
        tr.count("cmr.rounds")
        tr.count("cmr.round_sets", len(round_sets))
        tr.count("cmr.merges", n_merges)
        # the §5.4 exit condition, read from the returned merge count
        if n_merges * 10 < len(round_sets):
            tr.state["block"]["exit"] = "rule"

    tr.wrap(pipeline, "build_round_sets", "cmr.build_round_sets", after=round_built)
    tr.wrap(pipeline, "apply_merge_result", "cmr.apply_merge", after=merged)

    # -- per-block Algorithm 4
    def block_start(block, *a, **k):
        tr.state["block"] = {"rounds": 0, "exit": None}

    def block_end(res, block, *a, **k):
        blk = tr.state.pop("block")
        tr.count("pipeline.blocks")
        tr.peak("pipeline.max_levels", len(res.level_set_counts))
        if len(block) < 2:
            tr.count("pipeline.trivial_blocks")
        elif blk["exit"] is not None:
            tr.count(f"pipeline.exit_{blk['exit']}_blocks")
        elif blk["rounds"] == pipeline._MAX_ROUNDS:
            tr.count("pipeline.exit_cap_blocks")
        else:
            raise RuntimeError(
                f"block of {len(block)} records stopped after "
                f"{blk['rounds']} rounds for no known reason"
            )

    tr.wrap(
        harness, "resolve_block", "pipeline.resolve_block",
        before=block_start, after=block_end,
    )

    # -- metrics: the harness's name and the module's (Spark flow)
    def pred_clusters(out, pred, *a, **k):
        tr.peak("metrics.pred_clusters", len(set(pred.values())))

    tr.wrap(harness, "all_metrics", "metrics.all", after=pred_clusters)
    tr.wrap(metrics, "all_metrics", "metrics.all", after=pred_clusters)
    for fn in ("acc", "fp_measure", "nmi", "ari"):
        tr.wrap(metrics, fn, f"metrics.{fn}")

    # -- harness dispatch and label remapping
    tr.wrap(harness, "run_er", "harness.run_er")


def layer_metrics(tr: Tracer, e2e_s: float) -> dict[str, float]:
    """Per-layer readings of one traced pass (see BENCHMARK.json)."""
    st, c, mx = tr.self_times(), tr.counts, tr.maxima
    answers = c["llm.answers"]
    guarded = c["mdg.guarded_sets"]
    round_sets = c["cmr.round_sets"]
    return {
        "records.build_s": st["records.build"],
        "embed.embed_batch_s": st["embed.embed_batch"],
        "lsh.blocks_s": tr.inclusive("lsh.blocks"),
        "lsh.band_signatures_s": st["lsh.band_signatures"],
        "lsh.verify_s": st["lsh.blocks"],
        "lsh.components_s": st["lsh.components"],
        "lsh.split_s": st["lsh.split"],
        "lsh.kmeans_s": st["lsh.kmeans"],
        "lsh.purify_s": st["lsh.purify"],
        "lsh.candidate_pairs": c["lsh.candidate_pairs"],
        "lsh.max_bucket": mx.get("lsh.max_bucket", 0),
        "lsh.blocks": c["lsh.blocks"],
        "lsh.max_block": mx.get("lsh.max_block", 0),
        "nrs.record_sets_s": st["nrs.record_sets"],
        "nrs.elbow_k_s": st["nrs.elbow_k"],
        "nrs.elbow_k_calls": c["nrs.elbow_k_calls"],
        "nrs.kmeans_s": st["nrs.kmeans"],
        "nrs.kmeans_calls": c["nrs.kmeans_calls"],
        "nrs.sets": c["nrs.sets"],
        "llm.cluster_s": st["llm.cluster"],
        "llm.cluster_calls": c["llm.cluster_calls"],
        "llm.batch_calls": c["llm.batch_calls"],
        "llm.invalid_outputs": c["llm.invalid_outputs"],
        "llm.valid_ratio": 1 - c["llm.invalid_outputs"] / answers if answers else 0.0,
        "mdg.guard_s": st["mdg.guard"],
        "mdg.guarded_sets": guarded,
        "mdg.misclustered_s": st["mdg.misclustered"],
        "mdg.flagged_records": c["mdg.flagged_records"],
        "mdg.regenerate_s": st["mdg.regenerate"],
        "mdg.regenerations": c["mdg.regenerations"],
        "mdg.first_pass_ratio": c["mdg.first_pass_sets"] / guarded if guarded else 0.0,
        "cmr.build_round_sets_s": st["cmr.build_round_sets"],
        "cmr.apply_merge_s": st["cmr.apply_merge"],
        "cmr.rounds": c["cmr.rounds"],
        "cmr.round_sets": round_sets,
        "cmr.merges": c["cmr.merges"],
        "cmr.merge_yield": c["cmr.merges"] / round_sets if round_sets else 0.0,
        "pipeline.resolve_block_s": st["pipeline.resolve_block"],
        "pipeline.blocks": c["pipeline.blocks"],
        "pipeline.max_block_s": tr.longest("pipeline.resolve_block"),
        "pipeline.max_levels": mx.get("pipeline.max_levels", 0),
        "pipeline.trivial_blocks": c["pipeline.trivial_blocks"],
        "pipeline.exit_rule_blocks": c["pipeline.exit_rule_blocks"],
        "pipeline.exit_nopair_blocks": c["pipeline.exit_nopair_blocks"],
        "pipeline.exit_cap_blocks": c["pipeline.exit_cap_blocks"],
        "metrics.all_s": tr.inclusive("metrics.all"),
        "metrics.acc_s": st["metrics.acc"],
        "metrics.fp_s": st["metrics.fp_measure"],
        "metrics.nmi_s": st["metrics.nmi"],
        "metrics.ari_s": st["metrics.ari"],
        "metrics.pred_clusters": mx.get("metrics.pred_clusters", 0),
        "spark.records_df_s": st["spark.records_df"],
        "spark.lsh_assign_blocks_s": st["spark.lsh_assign_blocks"],
        "spark.resolve_s": st["spark.resolve"],
        "spark.collect_s": st["spark.collect"],
        "spark.fp_measure_s": st["spark.fp_measure"],
        "spark.tasks": c["spark.tasks"],
        "spark.failed_tasks": c["spark.failed_tasks"],
        "harness.run_er_self_s": st["harness.run_er"],
        "root.self_s": st["root"],
        "root.e2e_s": e2e_s,
        "trace.hook_s": st["trace.hook"],
    }
