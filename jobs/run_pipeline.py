"""spark-submit entrypoint for the distributed LLM-CER pipeline.

Runs the full Spark dataflow on one dataset: records DF → embedding
pandas UDF → LSH bucket shuffle, verified on the executors → per-block
Algorithm 4, blocks packed per core → Spark-SQL metric aggregation, and
prints quality + ledger totals next to the run's compute wall seconds
(dataset generation through the metrics, Spark session start-up
excluded).

Usage: ``spark-submit jobs/run_pipeline.py --dataset cora --scale 1.0``
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import make_parser, spark_session


def main() -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--dataset", default="cora")
    args = parser.parse_args()

    from repro.core.metrics import all_metrics
    from repro.core.spark_metrics import fp_measure_spark
    from repro.core.spark_pipeline import (
        assignment_from_result, ledger_totals, lsh_assign_blocks,
        records_df, resolve_blocks_distributed,
    )
    from repro.datasets.generator import generate
    from repro.datasets.registry import spec as get_spec
    from repro.llm.profiles import GPT_4O_MINI

    spark = spark_session()
    t0 = time.perf_counter()
    sp = get_spec(args.dataset, args.scale)
    pdf = generate(sp)
    df = records_df(spark, pdf, sp)
    blocked = lsh_assign_blocks(df, seed=args.seed)
    result = resolve_blocks_distributed(blocked, seed=args.seed).cache()

    truth = dict(zip(pdf.record_id.astype(int), pdf.entity_id.astype(int)))
    assign = assignment_from_result(result)
    quality = all_metrics(assign, truth)
    led = ledger_totals(result)

    # Spark-side FP as a cross-check of the Python metric path
    rows = [(int(r), int(p), int(truth[r])) for r, p in assign.items()]
    adf = spark.createDataFrame(rows, ["record_id", "pred", "truth"])
    fp_spark = fp_measure_spark(adf)
    compute_s = time.perf_counter() - t0

    profile = GPT_4O_MINI
    cost = (
        led["in_tokens"] * profile.input_price_per_m
        + led["out_tokens"] * profile.output_price_per_m
    ) / 1e6
    print(f"dataset={args.dataset} scale={args.scale} records={len(pdf)}")
    print(
        "  quality: "
        + " ".join(f"{k}={v:.3f}" for k, v in quality.items())
        + f" fp_spark={fp_spark:.3f}"
    )
    print(
        f"  ledger: calls={led['n_calls']} tokens={led['in_tokens'] + led['out_tokens']}"
        f" cost_usd={cost:.3f} sim_time_min={led['sim_time_s'] / 60:.1f}"
        f" compute_s={compute_s:.1f}"
    )
    result.unpersist()
    spark.stop()


if __name__ == "__main__":
    main()
