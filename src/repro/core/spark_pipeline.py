"""Distributed LLM-CER over Spark DataFrames.

Dataflow (DESIGN.md §Layering): the generated dataset becomes a Spark
DataFrame; records are serialized and stripped of attribute labels in
pandas and embedded with one pandas UDF; LSH band signatures are
computed next to the embedding and exploded to one row per (band,
record); each band's buckets are verified against the cosine threshold
on the executors, one pandas call per band, and only the verified
record-id edges come back to the driver for union-find. Each block is
then resolved *independently* with the exact same per-block Algorithm
4 as the driver path (purification and oversize splitting included);
blocks are packed into one partition per core, ``pmod(hash(block_id),
defaultParallelism)``, and one pandas call loops over a partition's
blocks, so a run starts a few Python tasks that each do a lot of work.
Per-block ledgers come back as columns.

The two paths are *not* identical. The LSH components are (the tests
assert that ``block_id`` groups equal the driver's components), but
every sub-block here is resolved with ``seed`` where the driver path
uses ``seed + block_index``, and ``resolve_block`` depends on the order
rows reach it: the order in which the join that attaches ``block_id``
emits them. The integration test only asserts comparable quality
(|ΔFP| < 0.15) against the driver path.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType, LongType, StringType, StructField, StructType,
)

from ..datasets.schema import DatasetSpec
from ..embed.hashing import DEFAULT_DIM, embed_udf
from ..embed.hashing import tokens as _tokens
from ..llm.profiles import GPT_4O_MINI, PROFILES, LLMProfile
from ..llm.simulated import SimulatedLLM
from .records import Record, serialize_frame, strip_attr_labels
from .unionfind import UnionFind


def records_df(
    spark: SparkSession, pdf: pd.DataFrame, spec: DatasetSpec
) -> DataFrame:
    """Dataset frame → Spark DF with serialized text and embeddings.

    Attribute labels are stripped here in pandas, as ``build_records``
    does, so the plan's only Python evaluator is the embedding pandas UDF.
    """
    texts = serialize_frame(pdf, spec)
    base = pdf[["record_id", "entity_id"]].copy()
    base["text"] = texts
    base["emb_text"] = [strip_attr_labels(t) for t in texts]
    return spark.createDataFrame(base).select(
        "record_id", "entity_id", "text",
        embed_udf(DEFAULT_DIM)(F.col("emb_text")).alias("vec"),
    )


def lsh_assign_blocks(
    df: DataFrame,
    *,
    n_bands: int = 6,
    band_bits: int = 5,
    threshold: float = 0.35,
    seed: int = 0,
) -> DataFrame:
    """Add a ``block_id`` column via distributed LSH bucketing.

    Band signatures are computed per Arrow batch with
    :func:`repro.blocking.lsh.band_signatures`, next to the embedding,
    and exploded to one (band, signature, record) row per band. Each
    band's buckets are verified on the executors, one pandas call per
    band, against the cosine threshold ``b_t`` (the same
    :func:`~repro.blocking.lsh.bucket_edges` rule as
    :func:`~repro.blocking.lsh.lsh_blocks`); only the verified
    record-id edges reach the driver, where a union-find folds them into
    components. ``block_id`` is each component's minimum record id.
    Unlike ``lsh_blocks``, components are neither split nor purified
    here; :func:`resolve_blocks_distributed` does that per block.
    """

    # a string column, not array<bigint>: with an array result Spark
    # kept 22 Python workers alive instead of 14 (3,000 records,
    # local[4]), about 500 MB more resident memory
    @F.pandas_udf(StringType())
    def _sigs(vecs: pd.Series) -> pd.Series:
        # imported in the worker: a captured driver-side function would
        # be pickled by value, with whatever its module globals hold
        from ..blocking.lsh import band_signatures

        sigs = band_signatures(np.stack(vecs.to_list()), n_bands, band_bits, seed)
        return pd.Series([",".join(map(str, row)) for row in sigs])

    def _verify(band: pd.DataFrame) -> pd.DataFrame:
        from ..blocking.lsh import bucket_edges

        # members in record-id order, so a bucket's similarity matrix
        # does not depend on the order the shuffle delivered its rows
        band = band.sort_values("record_id", kind="stable")
        vecs = np.stack(band["vec"].to_list()).astype(np.float64)
        rids = band["record_id"].to_numpy()
        pos = np.array(
            [
                edge
                for members in band.groupby("sig", sort=False).indices.values()
                for edge in bucket_edges(vecs, members.tolist(), threshold)
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        return pd.DataFrame({"a": rids[pos[:, 0]], "b": rids[pos[:, 1]]})

    edges = (
        df.select(
            "record_id", "vec",
            F.posexplode(F.split(_sigs(F.col("vec")), ",")).alias("band", "sig"),
        )
        .groupBy("band")
        .applyInPandas(_verify, schema="a long, b long")
        .collect()
    )
    # the embedding UDF is pruned from this plan; positions ascend with
    # record id, so every root is its component's minimum record id
    ids = sorted(int(r["record_id"]) for r in df.select("record_id").collect())
    at = {rid: i for i, rid in enumerate(ids)}
    uf = UnionFind(len(ids))
    for e in edges:
        uf.union(at[e["a"]], at[e["b"]])
    mapping = [(rid, ids[uf.find(i)]) for i, rid in enumerate(ids)]
    block_map = df.sparkSession.createDataFrame(mapping, ["record_id", "block_id"])
    return df.join(block_map, on="record_id", how="inner")


_RESULT_SCHEMA = StructType(
    [
        StructField("record_id", LongType()),
        StructField("block_id", LongType()),
        StructField("label", StringType()),
        StructField("n_calls", LongType()),
        StructField("in_tokens", LongType()),
        StructField("out_tokens", LongType()),
        StructField("sim_time_s", DoubleType()),
        StructField("level_counts", StringType()),
    ]
)


def resolve_blocks_distributed(
    blocked: DataFrame,
    *,
    profile: LLMProfile = GPT_4O_MINI,
    s_s: int = 9,
    s_d: int = 4,
    use_mdg: bool = True,
    purify_threshold: float = 0.35,
    max_block_size: int = 200,
    seed: int = 0,
) -> DataFrame:
    """Per-block Algorithm 4, blocks packed per core → assignments + ledgers.

    Blocks are independent, so they are packed into one partition per
    core (``repartition`` on ``block_id``: the partition is
    ``pmod(hash(block_id), defaultParallelism)``) and one pandas call
    resolves a partition's blocks one after another, each with its own
    ``SimulatedLLM`` seeded with ``seed``. A Python task has a fixed
    cost, so a few large tasks beat one per block. ``resolve_block``
    depends on the order of a block's rows; they reach Python in the
    order the join in :func:`lsh_assign_blocks` emitted them, and
    ``groupby(sort=False)`` keeps it.

    Output columns: record_id, block_id, ``label`` (globally unique
    string ``block/sub/local``), per-block ledger totals (repeated on
    each of the block's rows — aggregate with ``ledger_totals``), and
    the block's per-level record-set counts as a CSV string.
    """
    profile_name = profile.name

    def _resolve(block_id: int, pdf: pd.DataFrame) -> pd.DataFrame:
        from ..blocking.lsh import purify_block, split_oversized
        from .pipeline import resolve_block

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
        level_counts: list[int] = []
        for part in split_oversized(recs, max_block_size, seed):
            for blk in purify_block(part, purify_threshold):
                res = resolve_block(
                    blk, llm, s_s=s_s, s_d=s_d, use_mdg=use_mdg, seed=seed
                )
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

    def _resolve_packed(batches):
        frames = list(batches)
        if not frames:
            return
        pdf = pd.concat(frames, ignore_index=True)
        yield pd.concat(
            [
                _resolve(int(block_id), block)
                for block_id, block in pdf.groupby("block_id", sort=False)
            ],
            ignore_index=True,
        )

    cores = blocked.sparkSession.sparkContext.defaultParallelism
    return blocked.repartition(cores, "block_id").mapInPandas(
        _resolve_packed, schema=_RESULT_SCHEMA
    )


def ledger_totals(result: DataFrame) -> dict[str, float]:
    """Sum the per-block ledger columns, counting each block once.

    One scan of ``result`` and no shuffle. ``math.fsum`` makes the
    simulated seconds independent of the order Spark returns rows in.
    """
    per_block = {
        r["block_id"]: r
        for r in result.select(
            "block_id", "n_calls", "in_tokens", "out_tokens", "sim_time_s"
        ).collect()
    }.values()
    return {
        "n_calls": sum(r["n_calls"] for r in per_block),
        "in_tokens": sum(r["in_tokens"] for r in per_block),
        "out_tokens": sum(r["out_tokens"] for r in per_block),
        "sim_time_s": math.fsum(r["sim_time_s"] for r in per_block),
    }


def assignment_from_result(result: DataFrame) -> dict[int, int]:
    """Collect the distributed labels into a rid → dense-int map.

    Labels are numbered in ascending record-id order, and the dict is
    in that order, so the map does not depend on the Spark plan.
    """
    rows = sorted(
        (int(r["record_id"]), r["label"])
        for r in result.select("record_id", "label").collect()
    )
    remap: dict[str, int] = {}
    return {rid: remap.setdefault(label, len(remap)) for rid, label in rows}
