"""Integration tests for the distributed Spark pipeline."""
import numpy as np
import pytest

from repro.core.metrics import all_metrics
from repro.core.spark_pipeline import (
    assignment_from_result, ledger_totals, lsh_assign_blocks, records_df,
    resolve_blocks_distributed,
)
from repro.datasets.generator import generate
from repro.datasets.registry import spec as get_spec


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
