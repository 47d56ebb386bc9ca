"""Every resolver returns a partition of its block however badly the
simulated LLM behaves: hallucinating on every call, or answering that
all records are one entity."""
from dataclasses import replace

import pytest

from repro.baselines.booster import booster_er_block
from repro.baselines.bq import bq_er_block
from repro.baselines.crowder import crowder_er_block
from repro.baselines.pairwise import pairwise_er_block
from repro.baselines.plm import PLMModel, plm_er_block
from repro.blocking.lsh import lsh_blocks
from repro.core import mdg
from repro.core.pipeline import resolve_block
from repro.llm.profiles import GPT_4O_MINI
from repro.llm.simulated import SimulatedLLM

#: every clustering call over more than two records comes back corrupted
ALWAYS_HALLUCINATES = replace(GPT_4O_MINI, hallucination_rate=1.0)


@pytest.fixture(scope="module")
def block(cora_small):
    """The largest LSH block of ~10% Cora (capped at 40 records)."""
    _, _, recs, truth = cora_small
    blk = max(lsh_blocks(recs), key=len)[:40]
    assert len(blk) >= 10
    return blk, truth


def _llm(truth):
    return SimulatedLLM(truth, ALWAYS_HALLUCINATES, seed=0)


class AlwaysMerges(SimulatedLLM):
    """Bills every call as usual but answers "all one entity"."""

    def cluster_records(self, records, **kw):
        super().cluster_records(records, **kw)
        return [list(records)] if records else []

    def cluster_batch(self, sets, **kw):
        super().cluster_batch(sets, **kw)
        return [[list(s)] if s else [] for s in sets]

    def match_pair(self, a, b, **kw):
        super().match_pair(a, b, **kw)
        return True

    def match_pairs_batched(self, pairs, **kw):
        super().match_pairs_batched(pairs, **kw)
        return [True] * len(pairs)


#: a PLM whose every pair scores far above its decision threshold
MATCHES_EVERYTHING = PLMModel(
    "match-all", offsets=(-10.0, -10.0, -10.0), sigmas=(0.0, 0.0, 0.0)
)


def _assert_partition(clusters, records):
    flat = [r.rid for c in clusters for r in c]
    assert sorted(flat) == sorted(r.rid for r in records)


@pytest.mark.parametrize("use_mdg", [True, False])
@pytest.mark.parametrize("batch_size", [0, 4])
def test_resolve_block_partition(block, use_mdg, batch_size):
    blk, truth = block
    res = resolve_block(
        blk, _llm(truth), use_mdg=use_mdg, batch_size=batch_size
    )
    assert sorted(res.assignment) == sorted(r.rid for r in blk)


@pytest.mark.parametrize(
    "resolver",
    [pairwise_er_block, bq_er_block, booster_er_block, crowder_er_block],
)
def test_baseline_partition(block, resolver):
    blk, truth = block
    assert sorted(resolver(blk, _llm(truth))) == sorted(r.rid for r in blk)


@pytest.mark.parametrize("use_mdg", [True, False])
def test_guarded_outputs_are_partitions(block, use_mdg):
    """Record by record, not just as a label map: the guarded loop's
    answers hold every rid exactly once, per set and batched."""
    blk, truth = block
    sets = [blk[i : i + 9] for i in range(0, len(blk), 9)]
    for rset in sets:
        out = mdg.cluster_with_guardrail(_llm(truth), rset, use_mdg=use_mdg)
        _assert_partition(out, rset)
    batched = mdg.cluster_batched(_llm(truth), sets, 4, use_mdg=use_mdg)
    for rset, out in zip(sets, batched):
        _assert_partition(out, rset)


@pytest.mark.parametrize("use_mdg", [True, False])
@pytest.mark.parametrize("batch_size", [0, 4])
def test_always_merge_resolve_block(block, use_mdg, batch_size):
    blk, truth = block
    llm = AlwaysMerges(truth, GPT_4O_MINI, seed=0)
    res = resolve_block(blk, llm, use_mdg=use_mdg, batch_size=batch_size)
    assert sorted(res.assignment) == sorted(r.rid for r in blk)
    assert llm.ledger.snapshot()["n_calls"] > 0


@pytest.mark.parametrize(
    "resolver",
    [pairwise_er_block, bq_er_block, booster_er_block, crowder_er_block],
)
def test_always_merge_baselines(block, resolver):
    blk, truth = block
    llm = AlwaysMerges(truth, GPT_4O_MINI, seed=0)
    assert sorted(resolver(blk, llm)) == sorted(r.rid for r in blk)


@pytest.mark.parametrize("ft_frac", [0.0, 0.2, 0.8])
def test_match_everything_plm(block, ft_frac):
    blk, _ = block
    out = plm_er_block(blk, MATCHES_EVERYTHING, ft_frac, seed=0)
    assert sorted(out) == sorted(r.rid for r in blk)
    assert len(set(out.values())) == 1  # every pair matched: one entity
