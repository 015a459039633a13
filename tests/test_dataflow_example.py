"""The Spark dataflow on the paper's running example, cross-checked against
the hand-derived expectations and the DuckDB recursive-CTE oracle.

``vug_dataflow`` projects the θ-window in Spark and runs the kernel on the
collected window.  The edge table here is Fig. 1a plus edges just outside
``[τb, τe]``, so the projection has something to drop; every phase computed
on the projected window must still reproduce Figs 1, 3 and 4.
"""
import pytest

from repro.core.eev import eev
from repro.core.polarity import arrival_times, departure_times
from repro.core.quick_ubg import quick_ubg, quick_ubg_edges
from repro.core.tcv import tcv_from_source, tcv_to_target
from repro.core.tight_ubg import tight_ubg
from repro.core.vug import vug_dataflow
from repro.graph.adjacency import TemporalAdjacency
from repro.graph.duck_oracle import arrival_sql, departure_sql, tspg_sql
from repro.graph.schema import (
    edges_to_pdf,
    edges_to_spark,
    project_window_df,
    spark_edges_to_list,
)
from repro.oracle import assert_equivalent
from repro.workload import Query

from tests.example_graph import (
    A,
    C,
    E,
    EDGES,
    EXPECTED_ARRIVAL,
    EXPECTED_DEPARTURE,
    EXPECTED_GQ,
    EXPECTED_GT,
    EXPECTED_TCV_S,
    EXPECTED_TCV_T,
    EXPECTED_TSPG,
    S,
    T,
    TB,
    TE,
)

Q = Query(S, T, TB, TE)

# One step outside the window on either side; inside it they would add the
# s → t paths s-c-t, s-a-t and s-b-c-f-e-t.
OUTSIDE = [(S, C, TB - 1), (A, T, TE + 1), (E, T, TE + 1)]
EDGES_PDF = edges_to_pdf(EDGES + OUTSIDE)


@pytest.fixture(scope="module")
def edges_df(spark):
    return edges_to_spark(spark, EDGES_PDF).cache()


@pytest.fixture(scope="module")
def window(edges_df):
    return TemporalAdjacency(
        spark_edges_to_list(project_window_df(edges_df, TB, TE))
    )


@pytest.fixture(scope="module")
def gq(window):
    return quick_ubg(window, S, T, TB, TE)


@pytest.fixture(scope="module")
def gt(gq):
    return tight_ubg(gq, S, T)


def test_arrival_df_matches_fig3a(window):
    assert arrival_times(window, S, T, TB, TE) == EXPECTED_ARRIVAL


def test_departure_df_matches_fig3b(window):
    assert departure_times(window, S, T, TB, TE) == EXPECTED_DEPARTURE


def test_arrival_df_vs_duckdb_oracle(spark, window):
    got = spark.createDataFrame(
        sorted(arrival_times(window, S, T, TB, TE).items()),
        "v long, arrival long",
    )
    assert_equivalent(got, arrival_sql(S, T, TB, TE), edges=EDGES_PDF)


def test_departure_df_vs_duckdb_oracle(spark, window):
    got = spark.createDataFrame(
        sorted(departure_times(window, S, T, TB, TE).items()),
        "v long, departure long",
    )
    assert_equivalent(got, departure_sql(S, T, TB, TE), edges=EDGES_PDF)


def test_projection_vs_duckdb_oracle(spark, edges_df):
    df = project_window_df(edges_df, TB, TE)
    assert_equivalent(
        df,
        f"SELECT src, dst, ts FROM edges WHERE ts BETWEEN {TB} AND {TE}",
        edges=EDGES_PDF,
    )
    assert spark_edges_to_list(df) == sorted(EDGES)


def test_window_quick_ubg_matches_fig3c(gq):
    assert gq.edges == EXPECTED_GQ


def test_window_lemma1_filter_semantics(window):
    # Same result when A/D are fed in as the figure's label tables.
    got = quick_ubg_edges(window.edges, EXPECTED_ARRIVAL, EXPECTED_DEPARTURE)
    assert got == EXPECTED_GQ


def test_tcv_source_df_matches_fig4a(gq):
    assert tcv_from_source(gq, S, T) == EXPECTED_TCV_S


def test_tcv_target_df_matches_fig4b(gq):
    assert tcv_to_target(gq, S, T) == EXPECTED_TCV_T


def test_window_tight_ubg_matches_fig4c(gt):
    assert gt.edges == EXPECTED_GT


def test_window_eev_matches_fig1c(gt):
    assert eev(gt, S, T, TB, TE) == EXPECTED_TSPG


def test_vug_dataflow_end_to_end(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert spark_edges_to_list(tspg) == EXPECTED_TSPG


def test_vug_dataflow_vs_duckdb_oracle(spark, edges_df):
    tspg = vug_dataflow(spark, edges_df, Q)
    assert_equivalent(tspg, tspg_sql(S, T, TB, TE), edges=EDGES_PDF)
