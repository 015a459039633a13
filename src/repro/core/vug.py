"""VUG orchestration (paper Alg. 1): QuickUBG → TightUBG → EEV.

``vug_local`` is the exact per-query kernel with per-phase wall timings —
the unit of work that the evaluation harness parallelizes across queries.
``vug_dataflow`` is the same query over a Spark edge table (DataFrame in,
tspG-edge DataFrame out): Spark does the one data-parallel step, projecting
the θ-window out of the big edge table, and the kernel answers on the
collected window.  Every VUG phase only reads edges inside ``[τb, τe]``, so
the window gives the same answer as the whole graph.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Set

from pyspark.sql import DataFrame, SparkSession

from repro.core.eev import eev
from repro.core.quick_ubg import quick_ubg
from repro.core.tight_ubg import tight_ubg
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    EDGE_SCHEMA,
    Edge,
    project_window_df,
    spark_edges_to_list,
)
from repro.workload import Query


@dataclass
class VugLocalResult:
    """Exact tspG for one query plus phase timings and intermediate sizes."""

    edges: List[Edge]
    timings: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def vertices(self) -> Set[int]:
        vs: Set[int] = set()
        for u, v, _ in self.edges:
            vs.add(u)
            vs.add(v)
        return vs


def vug_local(adj: TemporalAdjacency, q: Query) -> VugLocalResult:
    """Run the full VUG kernel for one query on a local adjacency."""
    if q.s == q.t:
        # A simple path cannot return to s, so no s → s path exists.  The
        # phases below assume s ≠ t: Lemma 2 would keep every s-out and
        # t-in edge, which here are cycle edges.
        return VugLocalResult(
            edges=[],
            timings={"quick": 0.0, "tight": 0.0, "eev": 0.0},
            sizes={"gq": 0, "gt": 0, "tspg": 0},
        )
    t0 = time.perf_counter()
    gq = quick_ubg(adj, q.s, q.t, q.tb, q.te)
    t1 = time.perf_counter()
    gt = tight_ubg(gq, q.s, q.t)
    t2 = time.perf_counter()
    edges = eev(gt, q.s, q.t, q.tb, q.te)
    t3 = time.perf_counter()
    return VugLocalResult(
        edges=edges,
        timings={"quick": t1 - t0, "tight": t2 - t1, "eev": t3 - t2},
        sizes={"gq": gq.m, "gt": gt.m, "tspg": len(edges)},
    )


def vug_dataflow(
    spark: SparkSession, edges: DataFrame, q: Query
) -> DataFrame:
    """VUG over a Spark edge table; returns the tspG edge DataFrame.

    One Spark job filters and collects the θ-window; ``vug_local`` runs on
    it.  The explicit schema keeps an empty tspG a typed DataFrame.
    """
    window = spark_edges_to_list(project_window_df(edges, q.tb, q.te))
    res = vug_local(TemporalAdjacency(window), q)
    return spark.createDataFrame(res.edges, schema=EDGE_SCHEMA)
