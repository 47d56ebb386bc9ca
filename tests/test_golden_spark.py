"""Golden regression: one Spark-path run pinned bit for bit.

Alaska at scale 0.05, seed 0, through ``records_df`` →
``lsh_assign_blocks`` → ``resolve_blocks_distributed`` with 64 shuffle
partitions. ``resolve_block`` depends on the order a block's rows reach
it, and that order follows the partitioning of the join that attaches
``block_id``, so the run is pinned at the shuffle-partition count it was
recorded with. A change that is meant to be pure performance must leave
every value here as it is; a change that moves one must say why.
"""
import hashlib
import json

import pytest

from repro.core.spark_pipeline import (
    ledger_totals, lsh_assign_blocks, records_df, resolve_blocks_distributed,
)
from repro.datasets.generator import generate
from repro.datasets.registry import spec as get_spec

_PARTITIONS = "spark.sql.shuffle.partitions"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def run(spark):
    before = spark.conf.get(_PARTITIONS)
    spark.conf.set(_PARTITIONS, "64")
    try:
        sp = get_spec("alaska", 0.05)
        blocked = lsh_assign_blocks(records_df(spark, generate(sp), sp), seed=0)
        result = resolve_blocks_distributed(blocked, seed=0).cache()
        try:
            return result.collect(), ledger_totals(result)
        finally:
            result.unpersist()
    finally:
        spark.conf.set(_PARTITIONS, before)


def test_bill(run):
    _, led = run
    assert led["n_calls"] == 142
    assert led["in_tokens"] == 51_232
    assert led["out_tokens"] == 3_316
    # recorded as 134.43120000000002 from a sum in the order Spark
    # returned the blocks, which is not canonical; math.fsum reads
    # 134.4312, so the pin allows the last digits
    assert led["sim_time_s"] == pytest.approx(134.43120000000002, rel=1e-12)


def test_partition(run):
    rows, _ = run
    assert len(rows) == 600
    clusters: dict[str, list[int]] = {}
    for r in rows:
        clusters.setdefault(r["label"], []).append(int(r["record_id"]))
    assert _sha(sorted(sorted(c) for c in clusters.values())) == (
        "60ac1ea9465ae30b7ee5a93ce11726023f8157bcb854e65d6d07cd9c90237efe"
    )


def test_block_ledgers(run):
    rows, _ = run
    ledgers = sorted(
        {
            (
                int(r["block_id"]), int(r["n_calls"]), int(r["in_tokens"]),
                int(r["out_tokens"]), repr(float(r["sim_time_s"])),
                r["level_counts"],
            )
            for r in rows
        }
    )
    assert len(ledgers) == 71
    assert _sha(ledgers) == (
        "f5699351d454e025cbf9605deaddd8915561bfe2700abbcf152b3e2d0b8b6bb5"
    )
