"""Synthetic temporal edge tables as Spark DataFrames.

Thin wrappers that lift the generators in ``repro.graph`` into the canonical
``(src, dst, ts)`` edge DataFrame: a free-form Zipf-degree graph and the
scaled stand-ins for the paper's datasets D1..D10.  Both are deterministic
in ``seed``, so the kernel, the dataflow and the DuckDB oracle see the same
edges.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.graph.datasets import make_dataset
from repro.graph.generators import temporal_graph_pdf
from repro.graph.schema import edges_to_spark


def temporal_edges(
    spark: SparkSession, *, n: int = 200, m: int = 2000, n_ts: int = 100,
    alpha: float = 1.05, seed: int = 0,
) -> DataFrame:
    """Directed temporal edge table (src, dst, ts) with Zipf-skewed degrees."""
    return edges_to_spark(
        spark, temporal_graph_pdf(n=n, m=m, n_ts=n_ts, alpha=alpha, seed=seed)
    )


def paper_dataset(
    spark: SparkSession, key: str, *, scale="test", seed: int = 0
) -> DataFrame:
    """Scaled synthetic stand-in for one of the paper's datasets D1..D10."""
    return edges_to_spark(spark, make_dataset(key, scale=scale, seed=seed))
