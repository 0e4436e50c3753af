"""Table 3 + Figure 9 — stress test on uniform and skew datasets.

The core-engine leg runs the largest single-node simulation; the Spark
leg drives the same LIRE protocol through the Parquet/DataFrame engine
(batch updates + rebalance jobs + Spark search) as the scaled twin
of the paper's billion-scale run.
"""
import os
import tempfile

from repro.experiments import THREADS_TABLE3, run_f9_spark_leg, run_f9_stress
from repro.harness import render_table


def main() -> None:
    print("== Table 3: thread allocation used by the harness models ==")
    print(render_table(THREADS_TABLE3))
    out = run_f9_stress(n_base=20_000, n_epochs=20, n_queries=400)
    for label, ts in out.items():
        print(f"\n== Figure 9 (scaled) — {label} dataset ==")
        print(render_table(ts[["epoch", "recall", "p999_ms", "insert_avg_ms", "mem_mb", "n_postings"]]))
        print(f"accuracy floor: {ts['recall'].min():.3f}")

    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("f9-stress")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    with tempfile.TemporaryDirectory() as root:
        df = run_f9_spark_leg(spark, root, n_base=10_000, n_epochs=5, n_queries=100)
    print("\n== Figure 9 — Spark dataflow engine leg (10k vectors) ==")
    print(render_table(df))


if __name__ == "__main__":
    main()
