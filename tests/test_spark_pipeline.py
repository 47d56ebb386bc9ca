"""Integration tests for the distributed Spark pipeline."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import StringType

from repro.core.metrics import all_metrics
from repro.core.records import Record
from repro.core.spark_pipeline import (
    assignment_from_result, ledger_totals, lsh_assign_blocks, records_df,
    resolve_blocks_distributed,
)
from repro.datasets.generator import generate
from repro.datasets.registry import spec as get_spec
from repro.embed.hashing import tokens as _tokens
from repro.llm.profiles import GPT_4O_MINI, PROFILES
from repro.llm.simulated import SimulatedLLM


def _lsh_assign_blocks_reference(
    df, *, n_bands=6, band_bits=5, threshold=0.35, seed=0
):
    """Driver-side verification: every vector and every bucket's
    record ids are collected, and the buckets are verified on the
    driver (the implementation before verification moved to the
    executors)."""
    from repro.blocking.lsh import bucket_edges
    from repro.core.unionfind import UnionFind

    @F.pandas_udf(StringType())
    def _sigs(vecs: pd.Series) -> pd.Series:
        from repro.blocking.lsh import band_signatures

        sigs = band_signatures(np.stack(vecs.to_list()), n_bands, band_bits, seed)
        return pd.Series([",".join(map(str, row)) for row in sigs])

    buckets = (
        df.withColumn("sigs", _sigs(F.col("vec")))
        .select("record_id", F.posexplode(F.split("sigs", ",")))
        .groupBy(F.col("pos").alias("band"), F.col("col").alias("sig"))
        .agg(F.collect_list("record_id").alias("rids"))
    )
    vec_of = {
        int(r["record_id"]): np.asarray(r["vec"], dtype=np.float64)
        for r in df.select("record_id", "vec").collect()
    }
    ids = sorted(vec_of)
    at = {rid: i for i, rid in enumerate(ids)}
    vecs = np.stack([vec_of[rid] for rid in ids])
    uf = UnionFind(len(ids))
    for row in buckets.select("rids").collect():
        members = [at[int(x)] for x in row["rids"]]
        for a, b in bucket_edges(vecs, members, threshold):
            uf.union(a, b)
    mapping = [(rid, ids[uf.find(at[rid])]) for rid in vec_of]
    block_map = df.sparkSession.createDataFrame(mapping, ["record_id", "block_id"])
    return df.join(block_map, on="record_id", how="inner")


def _resolve_per_block_reference(blocked, *, seed=0):
    """One ``applyInPandas`` group, and so one Python call, per block
    (the implementation before blocks were packed per core), with the
    default profile and Algorithm 4 settings."""
    from repro.core.spark_pipeline import _RESULT_SCHEMA

    profile_name = GPT_4O_MINI.name

    def _resolve(key, pdf):
        from repro.blocking.lsh import purify_block, split_oversized
        from repro.core.pipeline import resolve_block

        block_id = int(key[0])
        recs = [
            Record(
                rid=int(row.record_id),
                text=row.text,
                vec=np.asarray(row.vec, dtype=np.float32),
                tokens=_tokens(row.text),
            )
            for row in pdf.itertuples()
        ]
        truth = dict(
            zip(pdf["record_id"].astype(int), pdf["entity_id"].astype(int))
        )
        llm = SimulatedLLM(truth, PROFILES[profile_name], seed=seed)
        rows = []
        sub = 0
        level_counts = []
        for part in split_oversized(recs, 200, seed):
            for blk in purify_block(part, 0.35):
                res = resolve_block(blk, llm, s_s=9, s_d=4, use_mdg=True, seed=seed)
                for i, cnt in enumerate(res.level_set_counts):
                    if i >= len(level_counts):
                        level_counts.append(0)
                    level_counts[i] += cnt
                for rid, lab in res.assignment.items():
                    rows.append((rid, block_id, f"{block_id}/{sub}/{lab}"))
                sub += 1
        led = llm.ledger
        return pd.DataFrame(
            {
                "record_id": [r[0] for r in rows],
                "block_id": [r[1] for r in rows],
                "label": [r[2] for r in rows],
                "n_calls": led.n_calls,
                "in_tokens": led.in_tokens,
                "out_tokens": led.out_tokens,
                "sim_time_s": led.sim_time_s,
                "level_counts": ",".join(map(str, level_counts)) or "0",
            }
        )

    return blocked.groupBy("block_id").applyInPandas(_resolve, schema=_RESULT_SCHEMA)


def _rows_by_record(result):
    return {
        int(r["record_id"]): (
            int(r["block_id"]), r["label"], int(r["n_calls"]),
            int(r["in_tokens"]), int(r["out_tokens"]),
            float(r["sim_time_s"]).hex(), r["level_counts"],
        )
        for r in result.collect()
    }


@pytest.fixture(scope="module")
def spark_world(spark):
    sp = get_spec("cora", 0.08)
    pdf = generate(sp)
    df = records_df(spark, pdf, sp)
    truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
    return sp, pdf, df, truth


class TestRecordsDf:
    def test_schema(self, spark_world):
        _, _, df, _ = spark_world
        assert {"record_id", "entity_id", "text", "vec"} <= set(df.columns)

    def test_row_count(self, spark_world):
        _, pdf, df, _ = spark_world
        assert df.count() == len(pdf)

    def test_one_python_evaluator(self, spark_world):
        """Labels are stripped in pandas: no row-at-a-time Python UDF
        runs before the embedding pandas UDF."""
        _, _, df, _ = spark_world
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "ArrowEvalPython" in plan
        assert "BatchEvalPython" not in plan

    def test_vectors_match_local_embedder(self, spark_world):
        from repro.core.records import strip_attr_labels
        from repro.embed.hashing import embed_text

        _, _, df, _ = spark_world
        row = df.orderBy("record_id").first()
        expected = embed_text(strip_attr_labels(row["text"]))
        assert np.allclose(np.array(row["vec"]), expected, atol=1e-6)


class TestLshAssignBlocks:
    def test_every_record_blocked(self, spark_world):
        _, pdf, df, _ = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        assert blocked.count() == len(pdf)
        assert blocked.select("record_id").distinct().count() == len(pdf)

    def test_blocks_group_duplicates(self, spark_world):
        _, _, df, truth = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        rows = blocked.select("record_id", "block_id").collect()
        bid = {int(r["record_id"]): int(r["block_id"]) for r in rows}
        import itertools

        by_ent = {}
        for rid, e in truth.items():
            by_ent.setdefault(e, []).append(rid)
        hit = pos = 0
        for ids in by_ent.values():
            for a, b in itertools.combinations(ids, 2):
                pos += 1
                hit += bid[a] == bid[b]
        assert hit / max(1, pos) > 0.5


    def test_blocks_equal_driver_components(self, spark_world):
        """``block_id`` groups are the driver's LSH components (before
        split and purify), each keyed by its minimum record id."""
        from repro.blocking.lsh import (
            band_signatures, blocks_from_edges, verified_edges,
        )
        from repro.core.records import build_records

        sp, pdf, df, _ = spark_world
        spark_blocks: dict[int, set[int]] = {}
        for r in lsh_assign_blocks(df, seed=0).collect():
            spark_blocks.setdefault(int(r["block_id"]), set()).add(
                int(r["record_id"])
            )
        recs, _ = build_records(pdf, sp)
        vecs = np.stack([r.vec for r in recs])
        edges = verified_edges(vecs, band_signatures(vecs, seed=0), 0.35)
        driver_blocks = {
            min(r.rid for r in blk): {r.rid for r in blk}
            for blk in blocks_from_edges(recs, edges)
        }
        assert spark_blocks == driver_blocks
        assert any(len(b) > 1 for b in driver_blocks.values())


class TestDistributedResolution:
    @pytest.fixture(scope="class")
    def result(self, spark_world):
        _, _, df, _ = spark_world
        blocked = lsh_assign_blocks(df, seed=0)
        return resolve_blocks_distributed(blocked, seed=0).cache()

    def test_assignment_covers_all(self, spark_world, result):
        _, pdf, _, _ = spark_world
        assign = assignment_from_result(result)
        assert set(assign) == set(pdf.record_id.astype(int))

    def test_partitions_without_blocks(self, spark_world, result):
        """One block leaves every other per-core partition empty."""
        _, _, df, _ = spark_world
        biggest = (
            result.groupBy("block_id").count().orderBy(F.desc("count")).first()
        )
        one = lsh_assign_blocks(df, seed=0).where(
            F.col("block_id") == biggest["block_id"]
        )
        rows = resolve_blocks_distributed(one, seed=0).collect()
        assert len(rows) == biggest["count"]
        assert {r["block_id"] for r in rows} == {biggest["block_id"]}

    def test_quality(self, spark_world, result):
        _, _, _, truth = spark_world
        assign = assignment_from_result(result)
        m = all_metrics(assign, truth)
        assert m["acc"] > 0.6 and m["fp"] > 0.7

    def test_ledger_totals(self, result):
        led = ledger_totals(result)
        assert led["n_calls"] > 0
        assert led["in_tokens"] > led["out_tokens"] > 0
        assert led["sim_time_s"] > 0

    def test_matches_driver_path_quality(self, spark_world, result):
        """Same data through the single-process path: comparable quality.

        Exact equality is not required (the paths seed per-block LLMs
        differently), but both must resolve the same easy dataset well.
        """
        from repro.experiments.harness import run_er
        from repro.core.records import build_records

        sp, pdf, _, truth = spark_world
        recs, truth2 = build_records(pdf, sp)
        r = run_er(sp, "llm_cer", seed=0, prepared=(recs, truth2))
        assign = assignment_from_result(result)
        m = all_metrics(assign, truth)
        assert abs(m["fp"] - r.fp) < 0.15


@pytest.fixture(scope="module", params=[("cora", 0.08), ("alaska", 0.05)],
                ids=["cora-0.08", "alaska-0.05"])
def world(request, spark):
    name, scale = request.param
    sp = get_spec(name, scale)
    return records_df(spark, generate(sp), sp)


class TestMatchesReference:
    """Verifying buckets on the executors and packing blocks per core
    change where the work runs, not a bit of what it produces."""

    def test_block_map(self, world):
        def block_map(blocked):
            return {
                int(r["record_id"]): int(r["block_id"])
                for r in blocked.select("record_id", "block_id").collect()
            }

        got = block_map(lsh_assign_blocks(world, seed=0))
        assert got == block_map(_lsh_assign_blocks_reference(world, seed=0))
        assert len(set(got.values())) < len(got)

    @pytest.mark.parametrize("coalesce", ["true", "false"])
    def test_result_rows(self, spark, world, coalesce):
        """With shuffle partitions left uncoalesced, the join that
        attaches ``block_id`` emits each block's rows in an order other
        than record-id order, as it does on larger inputs."""
        key = "spark.sql.adaptive.coalescePartitions.enabled"
        before = spark.conf.get(key)
        spark.conf.set(key, coalesce)
        try:
            blocked = lsh_assign_blocks(world, seed=0)
            packed = resolve_blocks_distributed(blocked, seed=0)
            assert (
                packed.rdd.getNumPartitions()
                == spark.sparkContext.defaultParallelism
            )
            got = _rows_by_record(packed)
            want = _rows_by_record(_resolve_per_block_reference(blocked, seed=0))
        finally:
            spark.conf.set(key, before)
        assert got == want
        assert sum(r[2] for r in got.values()) > 0


class TestOrderIndependentCollection:
    def test_shuffled_result(self, spark_world):
        _, _, df, _ = spark_world
        result = resolve_blocks_distributed(
            lsh_assign_blocks(df, seed=0), seed=0
        ).cache()
        try:
            shuffled = result.orderBy(F.rand(1))
            assert ledger_totals(shuffled) == ledger_totals(result)
            a, b = assignment_from_result(result), assignment_from_result(shuffled)
            assert list(a.items()) == list(b.items())
            assert list(a) == sorted(a)
        finally:
            result.unpersist()
