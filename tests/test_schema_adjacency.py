"""Edge schema canonicalization and timestamp-sorted adjacency."""
import pandas as pd
import pytest

from repro.graph.adjacency import TemporalAdjacency
from repro.graph.schema import (
    EDGE_COLUMNS,
    canonical_edges_pdf,
    edges_to_pdf,
    edges_to_spark,
    pdf_to_edge_list,
    project_window,
    project_window_df,
    spark_edges_to_list,
)


class TestSchema:
    def test_canonical_drops_self_loops(self):
        pdf = pd.DataFrame({"src": [1, 2], "dst": [1, 3], "ts": [5, 6]})
        out = canonical_edges_pdf(pdf)
        assert out.values.tolist() == [[2, 3, 6]]

    def test_canonical_dedupes(self):
        pdf = pd.DataFrame({"src": [1, 1, 1], "dst": [2, 2, 2], "ts": [5, 5, 6]})
        assert len(canonical_edges_pdf(pdf)) == 2

    def test_canonical_sorts(self):
        pdf = pd.DataFrame({"src": [3, 1], "dst": [4, 2], "ts": [9, 5]})
        out = canonical_edges_pdf(pdf)
        assert out["src"].tolist() == [1, 3]

    def test_round_trip_edge_list(self):
        edges = [(1, 2, 3), (2, 3, 4)]
        assert pdf_to_edge_list(edges_to_pdf(edges)) == edges

    def test_empty_edges_to_pdf(self):
        out = edges_to_pdf([])
        assert list(out.columns) == EDGE_COLUMNS and len(out) == 0

    def test_spark_round_trip(self, spark):
        edges = [(1, 2, 3), (2, 3, 4), (5, 1, 2)]
        df = edges_to_spark(spark, edges_to_pdf(edges))
        assert spark_edges_to_list(df) == sorted(edges)

    def test_project_window(self):
        edges = [(1, 2, 3), (2, 3, 9)]
        assert project_window(edges, 1, 5) == [(1, 2, 3)]

    def test_project_window_df(self, spark):
        df = edges_to_spark(spark, edges_to_pdf([(1, 2, 3), (2, 3, 9)]))
        assert spark_edges_to_list(project_window_df(df, 1, 5)) == [(1, 2, 3)]


class TestAdjacency:
    def test_out_desc_order(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 4, 7), (1, 5, 5)])
        assert [ts for ts, _ in adj.out_edges(1)] == [7, 5, 3]

    def test_in_asc_order(self):
        adj = TemporalAdjacency([(2, 1, 3), (4, 1, 7), (5, 1, 5)])
        assert [ts for ts, _ in adj.in_edges(1)] == [3, 5, 7]

    def test_out_asc_is_reverse(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 4, 7)])
        assert [ts for ts, _ in adj.out_asc(1)] == [3, 7]

    def test_n_m_vertices(self):
        adj = TemporalAdjacency([(1, 2, 3), (2, 3, 4)])
        assert (adj.n, adj.m) == (3, 2)
        assert adj.vertices == {1, 2, 3}

    def test_dedup_in_constructor(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 2, 3)])
        assert adj.m == 1

    def test_max_degree(self):
        adj = TemporalAdjacency([(1, 2, 3), (1, 3, 4), (1, 4, 5), (9, 1, 2)])
        assert adj.max_degree() == 3

    def test_max_degree_counts_in_side(self):
        adj = TemporalAdjacency([(2, 1, 3), (3, 1, 4), (4, 1, 5)])
        assert adj.max_degree() == 3

    def test_slice_is_tau_ordered_and_inclusive(self):
        adj = TemporalAdjacency([(3, 1, 5), (1, 2, 5), (2, 3, 9), (4, 1, 2)])
        assert adj.edges == [(1, 2, 5), (2, 3, 9), (3, 1, 5), (4, 1, 2)]
        assert adj.slice(2, 5) == [(4, 1, 2), (1, 2, 5), (3, 1, 5)]
        assert adj.slice(5, 9) == [(1, 2, 5), (3, 1, 5), (2, 3, 9)]
        assert adj.slice(6, 8) == [] and adj.slice(9, 2) == []

    def test_empty_graph(self):
        adj = TemporalAdjacency([])
        assert adj.n == 0 and adj.m == 0 and adj.max_degree() == 0

    def test_missing_vertex_neighbors(self):
        adj = TemporalAdjacency([(1, 2, 3)])
        assert adj.out_edges(99) == [] and adj.in_edges(99) == []
