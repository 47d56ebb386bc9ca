"""Clustering metrics as Spark SQL aggregations.

Given a DataFrame with columns ``record_id``, ``pred``, ``truth``,
purity / inverse-purity / FP-measure and the pair-confusion counts
(TP/FP/FN/TN) are computed with groupBy aggregations — no per-pair
materialisation: the pair counts come from cluster-size combinatorics
(Σ C(n,2) over pred, truth, and pred×truth groups). Purity, inverse
purity and the FP-measure share one contingency table and one Spark
action, so the input is read once.

The unit tests cross-check these against both the pure-Python
implementations in :mod:`repro.core.metrics` and DuckDB SQL via
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def _comb2(col):  # n*(n-1)/2 as a Spark column expression
    return (col * (col - F.lit(1)) / F.lit(2)).cast("long")


def contingency_df(assign: DataFrame) -> DataFrame:
    """(pred, truth) → count contingency table."""
    return assign.groupBy("pred", "truth").agg(
        F.count("*").alias("cnt")
    )


def _purities(assign: DataFrame) -> tuple[float, float]:
    """(purity, inverse purity) from one contingency table.

    One Spark action: grouping sets over the table give each predicted
    and each true cluster its largest cell in one aggregation, and the
    cell counts summed per side give |R|.
    """
    per_cluster = (
        contingency_df(assign)
        .groupingSets([["pred"], ["truth"]], "pred", "truth")
        .agg(
            F.grouping("pred").alias("by_truth"),
            F.max("cnt").alias("best"),
            F.sum("cnt").alias("n"),
        )
    )
    rows = {
        r["by_truth"]: r
        for r in per_cluster.groupBy("by_truth")
        .agg(F.sum("best").alias("hits"), F.sum("n").alias("n"))
        .collect()
    }
    n = rows[0]["n"]
    return rows[0]["hits"] / n, rows[1]["hits"] / n


def purity_spark(assign: DataFrame) -> float:
    """Eq. 4: Σ max-truth-overlap over predicted clusters / |R|."""
    return _purities(assign)[0]


def inverse_purity_spark(assign: DataFrame) -> float:
    """Eq. 5: the same with pred/truth swapped."""
    return _purities(assign)[1]


def fp_measure_spark(assign: DataFrame) -> float:
    """Eq. 7: harmonic mean of the two purities."""
    p, ip = _purities(assign)
    if p == 0 or ip == 0:
        return 0.0
    return 2.0 / (1.0 / p + 1.0 / ip)


def pair_confusion_spark(assign: DataFrame) -> dict[str, int]:
    """TP/FP/FN/TN over record pairs via cluster-size combinatorics."""
    n = assign.count()
    total = n * (n - 1) // 2
    tp = (
        contingency_df(assign)
        .agg(F.sum(_comb2(F.col("cnt"))).alias("s"))
        .collect()[0]["s"]
        or 0
    )
    same_pred = (
        assign.groupBy("pred")
        .agg(F.count("*").alias("c"))
        .agg(F.sum(_comb2(F.col("c"))).alias("s"))
        .collect()[0]["s"]
        or 0
    )
    same_truth = (
        assign.groupBy("truth")
        .agg(F.count("*").alias("c"))
        .agg(F.sum(_comb2(F.col("c"))).alias("s"))
        .collect()[0]["s"]
        or 0
    )
    tp, same_pred, same_truth = int(tp), int(same_pred), int(same_truth)
    return {
        "tp": tp,
        "fp": same_pred - tp,
        "fn": same_truth - tp,
        "tn": total - same_pred - same_truth + tp,
    }


def cluster_size_histogram(assign: DataFrame) -> DataFrame:
    """size → #predicted clusters of that size (oracle-checked in tests)."""
    return (
        assign.groupBy("pred")
        .agg(F.count("*").alias("size"))
        .groupBy("size")
        .agg(F.count("*").alias("n_clusters"))
    )
