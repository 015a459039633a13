"""Spark dataflow vs local kernel on random small graphs, DuckDB
recursive-CTE oracle checks of the end-to-end tspG, and degenerate queries
on every path (kernel, dataflow, query-parallel runner, enumeration).

``vug_dataflow`` runs the kernel on the θ-window that Spark projects, so
each phase computed on that window must equal the phase on the whole graph.
"""
import numpy as np
import pytest

from repro.baselines.enumeration import tspg_by_enumeration
from repro.core.polarity import arrival_times, departure_times
from repro.core.quick_ubg import quick_ubg
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import vug_dataflow, vug_local
from repro.experiments.runner import run_workload_spark
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.datasets import make_dataset
from repro.graph.duck_oracle import tspg_sql
from repro.graph.generators import random_small_graph
from repro.graph.schema import (
    edges_to_spark,
    pdf_to_edge_list,
    project_window_df,
    spark_edges_to_list,
)
from repro.oracle import assert_equivalent
from repro.workload import Query, generate_queries

SEEDS = [3, 11, 27, 42, 55, 68]


def _case(seed):
    g = np.random.default_rng(seed)
    pdf = random_small_graph(
        n=int(g.integers(6, 12)), m=int(g.integers(14, 30)),
        n_ts=int(g.integers(4, 7)), seed=seed,
    )
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    try:
        q = generate_queries(adj, theta=int(g.integers(3, 6)), n_queries=1,
                             seed=seed, max_tries=200)[0]
    except RuntimeError:
        pytest.skip("no reachable query on this seed")
    return pdf, adj, q


def _window(spark, pdf, q):
    edf = edges_to_spark(spark, pdf)
    return TemporalAdjacency(
        spark_edges_to_list(project_window_df(edf, q.tb, q.te))
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_polarity_dataflow_equals_kernel(spark, seed):
    pdf, adj, q = _case(seed)
    win = _window(spark, pdf, q)
    assert arrival_times(win, q.s, q.t, q.tb, q.te) == arrival_times(
        adj, q.s, q.t, q.tb, q.te
    )
    assert departure_times(win, q.s, q.t, q.tb, q.te) == departure_times(
        adj, q.s, q.t, q.tb, q.te
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_quick_and_tight_dataflow_equal_kernel(spark, seed):
    pdf, adj, q = _case(seed)
    win = _window(spark, pdf, q)
    gq_win = quick_ubg(win, q.s, q.t, q.tb, q.te)
    gq = quick_ubg(adj, q.s, q.t, q.tb, q.te)
    assert gq_win.edges == gq.edges
    assert tight_ubg(gq_win, q.s, q.t).edges == tight_ubg(gq, q.s, q.t).edges


@pytest.mark.parametrize("seed", SEEDS)
def test_vug_dataflow_equals_kernel_and_oracle(spark, seed):
    pdf, adj, q = _case(seed)
    edf = edges_to_spark(spark, pdf)
    tspg_df = vug_dataflow(spark, edf, q).localCheckpoint(eager=True)
    assert spark_edges_to_list(tspg_df) == vug_local(adj, q).edges
    assert_equivalent(
        tspg_df, tspg_sql(q.s, q.t, q.tb, q.te), edges=pdf
    )


# Degenerate queries on D8 at test scale (vertices 0..103, τ in 1..20).
# Vertex 80 reaches 11 in [9, 18]: that query has a 103-edge tspG.
DEGENERATE = {
    "s_equals_t": Query(0, 0, 1, 50),
    "tb_after_te": Query(80, 11, 18, 9),
    "unknown_s": Query(10**6, 11, 9, 18),
    "unknown_t": Query(80, 10**6, 9, 18),
    "empty_window": Query(80, 11, 21, 30),
}


@pytest.fixture(scope="module")
def d8(spark):
    pdf = make_dataset("D8", scale="test", seed=0)
    adj = TemporalAdjacency(pdf_to_edge_list(pdf))
    runner = run_workload_spark(spark, pdf, list(DEGENERATE.values()), ["VUG"])
    n_tspg = dict(zip(runner["qid"], runner["n_tspg"]))
    return adj, edges_to_spark(spark, pdf).cache(), n_tspg


@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_query_empty_on_every_path(spark, d8, name):
    adj, edf, runner_n_tspg = d8
    q = DEGENERATE[name]
    assert vug_local(adj, q).edges == []
    assert spark_edges_to_list(vug_dataflow(spark, edf, q)) == []
    assert runner_n_tspg[list(DEGENERATE).index(name)] == 0
    assert tspg_by_enumeration(adj, q.s, q.t, q.tb, q.te)[0] == []
