"""Every resolver returns a partition of its block however badly the
simulated LLM behaves."""
from dataclasses import replace

import pytest

from repro.baselines.booster import booster_er_block
from repro.baselines.bq import bq_er_block
from repro.baselines.crowder import crowder_er_block
from repro.baselines.pairwise import pairwise_er_block
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
