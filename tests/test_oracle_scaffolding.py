"""Self-tests of the DuckDB correctness oracle on an ER assignment frame.

The frame has the shape the Spark metric modules consume
(``record_id, pred, truth``), so these check that ``assert_equivalent``
accepts a correct Spark aggregation of it and rejects a wrong one.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def assign(spark):
    """200 records over 12 entities; ~20% of predictions are wrong."""
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 12, size=200)
    pred = np.where(rng.random(200) < 0.8, truth, rng.integers(0, 12, size=200))
    pdf = pd.DataFrame(
        {"record_id": np.arange(200), "pred": pred, "truth": truth}
    )
    return spark.createDataFrame(pdf).cache()


class TestOracle:
    def test_groupby_aggregation(self, spark, assign):
        out = assign.groupBy("pred").agg(
            F.count("*").alias("cnt"),
            F.countDistinct("truth").alias("n_truth"),
        )
        assert_equivalent(
            out,
            "SELECT pred, COUNT(*) AS cnt, COUNT(DISTINCT truth) AS n_truth "
            "FROM assign GROUP BY pred",
            assign=assign,
        )

    def test_catches_wrong_result(self, spark, assign):
        wrong = assign.groupBy("pred").agg((F.count("*") + 1).alias("cnt"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT pred, COUNT(*) AS cnt FROM assign GROUP BY pred",
                assign=assign,
            )
